package decomp

import (
	"math/rand"
	"testing"

	"syncstamp/internal/graph"
)

func TestNewValidStar(t *testing.T) {
	groups := []Group{
		{Kind: KindStar, Root: 0, Edges: []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}}},
	}
	d, err := New(3, groups)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if d.D() != 1 || d.Stars() != 1 || d.Triangles() != 0 {
		t.Fatalf("d=%d stars=%d triangles=%d", d.D(), d.Stars(), d.Triangles())
	}
	gi, ok := d.GroupOf(1, 0)
	if !ok || gi != 0 {
		t.Fatalf("GroupOf(1,0) = %d, %v", gi, ok)
	}
	if _, ok := d.GroupOf(1, 2); ok {
		t.Fatal("GroupOf(1,2) should be uncovered")
	}
}

// TestGroupOfUncoveredChannels pins that a channel which cannot be an edge
// is reported uncovered rather than panicking: a self channel, a negative
// vertex, or a vertex at or beyond N. Pairs a wrong key packing would merge
// — (u,v) against (v,u) is the same edge, and vertices past 32 bits —
// resolve to their own groups or to none.
func TestGroupOfUncoveredChannels(t *testing.T) {
	d := Best(graph.Complete(4))
	for _, ch := range [][2]int{{0, 0}, {3, 3}, {-1, 0}, {0, -1}, {-1, -1}, {-5, 2}, {0, 4}, {4, 0}, {1, 1 << 32}, {1 << 32, 0}, {1 << 33, 1}} {
		if g, ok := d.GroupOf(ch[0], ch[1]); ok {
			t.Errorf("GroupOf(%d, %d) = %d, covered; want uncovered", ch[0], ch[1], g)
		}
	}
	for _, grp := range d.Groups() {
		for _, e := range grp.Edges {
			g1, ok1 := d.GroupOf(e.U, e.V)
			g2, ok2 := d.GroupOf(e.V, e.U)
			if !ok1 || !ok2 || g1 != g2 || d.Groups()[g1].String() != grp.String() {
				t.Errorf("edge %v: GroupOf = (%d,%v) and (%d,%v), want its group %v", e, g1, ok1, g2, ok2, grp)
			}
		}
	}
}

func TestNewRejectsBadGroups(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		groups []Group
	}{
		{"empty group", 3, []Group{{Kind: KindStar, Root: 0}}},
		{"not a star", 4, []Group{{Kind: KindStar, Root: 0, Edges: []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}}}},
		{"not a triangle", 4, []Group{{Kind: KindTriangle, Edges: []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}}}},
		{"duplicate edge across groups", 3, []Group{
			{Kind: KindStar, Root: 0, Edges: []graph.Edge{{U: 0, V: 1}}},
			{Kind: KindStar, Root: 1, Edges: []graph.Edge{{U: 0, V: 1}}},
		}},
		{"edge out of range", 2, []Group{{Kind: KindStar, Root: 0, Edges: []graph.Edge{{U: 0, V: 5}}}}},
		{"bad kind", 3, []Group{{Kind: Kind(9), Edges: []graph.Edge{{U: 0, V: 1}}}}},
		{"duplicate edge within group", 3, []Group{{Kind: KindStar, Root: 0, Edges: []graph.Edge{{U: 0, V: 1}, {U: 0, V: 1}}}}},
		// Edges that are not channels used to panic in graph.AddEdge.
		{"self-loop", 4, []Group{{Kind: KindStar, Root: 1, Edges: []graph.Edge{{U: 1, V: 0}, {U: 2, V: 2}}}}},
		{"negative vertex", 4, []Group{{Kind: KindStar, Root: 1, Edges: []graph.Edge{{U: -1, V: 1}}}}},
		{"negative second vertex", 4, []Group{{Kind: KindStar, Root: 1, Edges: []graph.Edge{{U: 1, V: -2}}}}},
		{"reversed edge out of range", 4, []Group{{Kind: KindStar, Root: 1, Edges: []graph.Edge{{U: 7, V: 1}}}}},
		// The old duplicate check looked the raw edge up and missed this.
		{"duplicate edge across groups, reversed", 3, []Group{
			{Kind: KindStar, Root: 0, Edges: []graph.Edge{{U: 0, V: 1}}},
			{Kind: KindStar, Root: 1, Edges: []graph.Edge{{U: 1, V: 0}}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.n, tc.groups); err == nil {
				t.Fatal("New accepted invalid groups")
			}
		})
	}
}

func TestNewFixesWrongRoot(t *testing.T) {
	// Declared root 2 is not incident to all edges; New should adopt a
	// valid root instead.
	groups := []Group{
		{Kind: KindStar, Root: 2, Edges: []graph.Edge{{U: 0, V: 1}, {U: 0, V: 3}}},
	}
	d, err := New(4, groups)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if d.Groups()[0].Root != 0 {
		t.Fatalf("root = %d, want 0", d.Groups()[0].Root)
	}
}

func TestTrivialStarsComplete(t *testing.T) {
	g := graph.Complete(5)
	d := TrivialStars(g)
	if d.D() != 4 {
		t.Fatalf("K5 trivial stars size = %d, want 4 (Figure 3(b))", d.D())
	}
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestTrivialWithTriangleComplete(t *testing.T) {
	g := graph.Complete(5)
	d := TrivialWithTriangle(g)
	if d.D() != 3 {
		t.Fatalf("K5 trivial+triangle size = %d, want 3 (Figure 3(a))", d.D())
	}
	if d.Stars() != 2 || d.Triangles() != 1 {
		t.Fatalf("stars=%d triangles=%d, want 2 and 1", d.Stars(), d.Triangles())
	}
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestTrivialWithTriangleNoTriangle(t *testing.T) {
	// Path graph: last three vertices do not induce a triangle.
	g := graph.Path(6)
	d := TrivialWithTriangle(g)
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
	if d.Triangles() != 0 {
		t.Fatal("path cannot contain a triangle group")
	}
}

func TestTrivialSmallGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		g := graph.Complete(n)
		for _, d := range []*Decomposition{TrivialStars(g), TrivialWithTriangle(g)} {
			if err := d.Validate(g); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

func TestFromVertexCover(t *testing.T) {
	g := graph.ClientServer(2, 5, false)
	d, err := FromVertexCover(g, []int{0, 1})
	if err != nil {
		t.Fatalf("FromVertexCover: %v", err)
	}
	if d.D() != 2 {
		t.Fatalf("client-server cover decomposition size = %d, want 2", d.D())
	}
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestFromVertexCoverRejects(t *testing.T) {
	g := graph.Path(4)
	if _, err := FromVertexCover(g, []int{0}); err == nil {
		t.Fatal("accepted a non-cover")
	}
	if _, err := FromVertexCover(g, []int{0, 9}); err == nil {
		t.Fatal("accepted an out-of-range vertex")
	}
}

func TestGreedyVertexCoverIsCover(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		g := graph.RandomGnp(2+rng.Intn(15), rng.Float64(), rng)
		cover := GreedyVertexCover(g)
		in := map[int]bool{}
		for _, v := range cover {
			in[v] = true
		}
		for _, e := range g.Edges() {
			if !in[e.U] && !in[e.V] {
				t.Fatalf("edge %v uncovered by %v", e, cover)
			}
		}
	}
}

func TestMinVertexCoverKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"K5", graph.Complete(5), 4},
		{"star7", graph.Star(7, 3), 1},
		{"path4", graph.Path(4), 2},
		{"path5", graph.Path(5), 2},
		{"cycle5", graph.Cycle(5), 3},
		{"triangle", graph.Triangle(), 2},
		{"clientserver 3x6", graph.ClientServer(3, 6, false), 3},
		{"disjoint triangles 3", graph.DisjointTriangles(3), 6},
		{"empty", graph.New(4), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cover, err := MinVertexCover(tc.g, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(cover) != tc.want {
				t.Fatalf("β = %d, want %d (cover %v)", len(cover), tc.want, cover)
			}
		})
	}
}

func TestMinVertexCoverGreedyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 25; i++ {
		g := graph.RandomGnp(3+rng.Intn(10), rng.Float64(), rng)
		exact, err := MinVertexCover(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		greedy := GreedyVertexCover(g)
		if len(greedy) > 2*len(exact) {
			t.Fatalf("greedy %d > 2x optimal %d", len(greedy), len(exact))
		}
	}
}

func TestMinVertexCoverLimit(t *testing.T) {
	if _, err := MinVertexCover(graph.Complete(80), 10); err == nil {
		t.Fatal("MinVertexCover accepted a graph above the limit")
	}
}

func TestCoverBound(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"K5: min(4, 3) = 3", graph.Complete(5), 3},
		{"star: min(1, 4) = 1", graph.Star(6, 0), 1},
		{"triangle: min(2, 1) = 1", graph.Triangle(), 1},
		{"single edge", graph.Path(2), 1},
		{"clientserver 2x6: 2", graph.ClientServer(2, 6, false), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := CoverBound(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("CoverBound = %d, want %d", got, tc.want)
			}
		})
	}
}
