package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEdgeNormalizes(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Fatalf("NewEdge(5,2) = %v, want (2,5)", e)
	}
}

func TestNewEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEdge(3,3) did not panic")
		}
	}()
	NewEdge(3, 3)
}

func TestEdgeOther(t *testing.T) {
	e := NewEdge(2, 7)
	if e.Other(2) != 7 || e.Other(7) != 2 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other(9) did not panic")
		}
	}()
	e.Other(9)
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate, reversed
	if g.M() != 1 {
		t.Fatalf("M() = %d, want 1 after duplicate add", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge should be symmetric")
	}
	g.RemoveEdge(1, 0)
	if g.M() != 0 || g.HasEdge(0, 1) {
		t.Fatal("RemoveEdge failed")
	}
	g.RemoveEdge(0, 1) // removing absent edge is a no-op
	if g.M() != 0 {
		t.Fatal("removing absent edge changed M")
	}
}

func TestDegreeNeighbors(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 0)
	g.AddEdge(2, 4)
	g.AddEdge(2, 1)
	if g.Degree(2) != 3 {
		t.Fatalf("Degree(2) = %d, want 3", g.Degree(2))
	}
	nb := g.Neighbors(2)
	want := []int{0, 1, 4}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
		}
	}
	if g.Degree(3) != 0 {
		t.Fatal("isolated vertex should have degree 0")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 2)
	g.AddEdge(1, 0)
	g.AddEdge(0, 3)
	edges := g.Edges()
	want := []Edge{{0, 1}, {0, 3}, {2, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges() = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges() = %v, want %v", edges, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Complete(4)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("mutating clone affected original")
	}
	if c.M() != g.M()-1 {
		t.Fatalf("clone M = %d, want %d", c.M(), g.M()-1)
	}
}

func TestIsStar(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"star5 at 0", Star(5, 0), true},
		{"star5 at 3", Star(5, 3), true},
		{"single edge", Path(2), true},
		{"path3", Path(3), true}, // 0-1-2 is a star rooted at 1
		{"path4", Path(4), false},
		{"triangle", Triangle(), false},
		{"empty", New(3), false},
		{"K4", Complete(4), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root, ok := tc.g.IsStar()
			if ok != tc.want {
				t.Fatalf("IsStar() = %v, want %v", ok, tc.want)
			}
			if ok {
				for _, e := range tc.g.Edges() {
					if !e.Has(root) {
						t.Fatalf("claimed root %d misses edge %v", root, e)
					}
				}
			}
		})
	}
}

func TestIsTriangle(t *testing.T) {
	tri, ok := Triangle().IsTriangle()
	if !ok || tri != [3]int{0, 1, 2} {
		t.Fatalf("Triangle().IsTriangle() = %v, %v", tri, ok)
	}
	if _, ok := Path(4).IsTriangle(); ok {
		t.Fatal("path4 is not a triangle")
	}
	if _, ok := Star(4, 0).IsTriangle(); ok {
		t.Fatal("star with 3 edges but no cycle is not a triangle")
	}
	// K4 restricted to a triangle's edges.
	g := New(4)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	tri, ok = g.IsTriangle()
	if !ok || tri != [3]int{1, 2, 3} {
		t.Fatalf("IsTriangle() = %v, %v, want (1,2,3)", tri, ok)
	}
}

// TestShapeOfEveryEdgeSubset checks StarOf and TriangleOf, the edge-list
// forms behind IsStar and IsTriangle, on every edge subset of K5 against
// the definitions: a star has a vertex on every edge, and a triangle is 3
// edges over 3 vertices of degree 2.
func TestShapeOfEveryEdgeSubset(t *testing.T) {
	all := Complete(5).Edges()
	for mask := 0; mask < 1<<len(all); mask++ {
		var edges []Edge
		for i, e := range all {
			if mask&(1<<i) != 0 {
				edges = append(edges, e)
			}
		}
		star := false
		for v := 0; v < 5 && len(edges) > 0; v++ {
			touches := true
			for _, e := range edges {
				touches = touches && e.Has(v)
			}
			star = star || touches
		}
		root, ok := StarOf(edges)
		if ok != star {
			t.Fatalf("StarOf(%v) = %v, want %v", edges, ok, star)
		}
		for _, e := range edges {
			if ok && !e.Has(root) {
				t.Fatalf("StarOf(%v) claims root %d, which misses %v", edges, root, e)
			}
		}
		deg := map[int]int{}
		for _, e := range edges {
			deg[e.U]++
			deg[e.V]++
		}
		var verts []int
		triangle := len(edges) == 3 && len(deg) == 3
		for v := 0; v < 5; v++ {
			if deg[v] > 0 {
				verts = append(verts, v)
				triangle = triangle && deg[v] == 2
			}
		}
		tri, ok := TriangleOf(edges)
		if ok != triangle || (ok && tri != [3]int{verts[0], verts[1], verts[2]}) {
			t.Fatalf("TriangleOf(%v) = %v, %v, want %v over %v", edges, tri, ok, triangle, verts)
		}
	}
}

func TestTriangles(t *testing.T) {
	if got := Complete(4).Triangles(); len(got) != 4 {
		t.Fatalf("K4 has %d triangles, want 4", len(got))
	}
	if got := Path(5).Triangles(); len(got) != 0 {
		t.Fatalf("path has %d triangles, want 0", len(got))
	}
	if got := DisjointTriangles(3).Triangles(); len(got) != 3 {
		t.Fatalf("3 disjoint triangles found %d, want 3", len(got))
	}
}

func TestIsAcyclic(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"empty", New(5), true},
		{"path", Path(6), true},
		{"tree", BalancedTree(2, 3), true},
		{"figure4", Figure4Tree(), true},
		{"cycle", Cycle(4), false},
		{"triangle", Triangle(), false},
		{"K5", Complete(5), false},
		{"forest", func() *Graph { g := New(6); g.AddEdge(0, 1); g.AddEdge(2, 3); g.AddEdge(4, 5); return g }(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.IsAcyclic(); got != tc.want {
				t.Fatalf("IsAcyclic() = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4: %v", len(comps), comps)
	}
	if !g.IsConnected() == false {
		t.Fatal("disconnected graph reported connected")
	}
	if !Complete(5).IsConnected() {
		t.Fatal("K5 should be connected")
	}
	if !New(0).IsConnected() {
		t.Fatal("empty graph should be connected")
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"K5", Complete(5), 5, 10},
		{"star6", Star(6, 0), 6, 5},
		{"triangle", Triangle(), 3, 3},
		{"path5", Path(5), 5, 4},
		{"cycle5", Cycle(5), 5, 5},
		{"grid 3x4", Grid(3, 4), 12, 17},
		{"hypercube3", Hypercube(3), 8, 12},
		{"clientserver 2x5", ClientServer(2, 5, false), 7, 10},
		{"clientserver 3x4 +inter", ClientServer(3, 4, true), 7, 15},
		{"balancedtree 2,3", BalancedTree(2, 3), 15, 14},
		{"figure4tree", Figure4Tree(), 20, 19},
		{"disjointtriangles 4", DisjointTriangles(4), 12, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.n || tc.g.M() != tc.m {
				t.Fatalf("got n=%d m=%d, want n=%d m=%d", tc.g.N(), tc.g.M(), tc.n, tc.m)
			}
		})
	}
}

func TestClientServerShape(t *testing.T) {
	g := ClientServer(3, 10, false)
	for c := 3; c < 13; c++ {
		for c2 := c + 1; c2 < 13; c2++ {
			if g.HasEdge(c, c2) {
				t.Fatalf("clients %d and %d should not be adjacent", c, c2)
			}
		}
		if g.Degree(c) != 3 {
			t.Fatalf("client %d degree = %d, want 3", c, g.Degree(c))
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 7, 20, 50} {
		g := RandomTree(n, rng)
		if g.N() != n {
			t.Fatalf("RandomTree(%d) has %d vertices", n, g.N())
		}
		wantM := n - 1
		if n == 0 || n == 1 {
			wantM = 0
		}
		if g.M() != wantM {
			t.Fatalf("RandomTree(%d) has %d edges, want %d", n, g.M(), wantM)
		}
		if !g.IsAcyclic() {
			t.Fatalf("RandomTree(%d) has a cycle", n)
		}
		if n > 0 && !g.IsConnected() {
			t.Fatalf("RandomTree(%d) is disconnected", n)
		}
	}
}

func TestRandomGnpExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if g := RandomGnp(6, 0, rng); g.M() != 0 {
		t.Fatalf("G(6,0) has %d edges", g.M())
	}
	if g := RandomGnp(6, 1, rng); g.M() != 15 {
		t.Fatalf("G(6,1) has %d edges, want 15", g.M())
	}
}

func TestRandomConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		g := RandomConnected(12, 0.2, rng)
		if !g.IsConnected() {
			t.Fatal("RandomConnected produced a disconnected graph")
		}
	}
}

func TestBalancedTreeStructure(t *testing.T) {
	g := BalancedTree(3, 2) // 1 + 3 + 9 = 13 vertices
	if g.N() != 13 || g.M() != 12 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
	if g.Degree(0) != 3 {
		t.Fatalf("root degree = %d, want 3", g.Degree(0))
	}
	if !g.IsAcyclic() || !g.IsConnected() {
		t.Fatal("balanced tree must be a connected acyclic graph")
	}
}

func TestSubgraph(t *testing.T) {
	g := Complete(4)
	s := g.Subgraph([]Edge{{0, 1}, {2, 3}})
	if s.M() != 2 || !s.HasEdge(0, 1) || !s.HasEdge(2, 3) || s.HasEdge(0, 2) {
		t.Fatalf("Subgraph = %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Subgraph with foreign edge did not panic")
		}
	}()
	Path(3).Subgraph([]Edge{{0, 2}})
}

func TestMaxDegree(t *testing.T) {
	if d := Star(8, 2).MaxDegree(); d != 7 {
		t.Fatalf("star max degree = %d, want 7", d)
	}
	if d := New(4).MaxDegree(); d != 0 {
		t.Fatalf("empty graph max degree = %d, want 0", d)
	}
}

// Property: handshake lemma — sum of degrees is twice the edge count.
func TestQuickHandshake(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGnp(2+rng.Intn(20), rng.Float64(), rng)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Edges() of a clone equals Edges() of the original.
func TestQuickCloneEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGnp(2+rng.Intn(15), rng.Float64(), rng)
		a, b := g.Edges(), g.Clone().Edges()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFigure2bShape(t *testing.T) {
	g := Figure2b()
	if g.N() != 11 {
		t.Fatalf("Figure2b has %d vertices, want 11", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("Figure2b should be connected")
	}
	if g.Degree(0) != 1 {
		t.Fatalf("vertex a must have degree 1 for the step-1 behavior, got %d", g.Degree(0))
	}
}
