package decomp

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"syncstamp/internal/graph"
)

// newViaGraphs is the construction New replaced: each group is checked by
// building an n-vertex graph.Graph from its edges and asking it for its
// shape, which costs O(n) memory per group and panics on a negative or
// self-loop edge. It differs from the original in one respect only: the
// cross-group duplicate check looks the edge up normalized, so an edge
// written (v,u) after an earlier group's (u,v) is refused, as New refuses
// it.
func newViaGraphs(n int, groups []Group) (*Decomposition, error) {
	d := &Decomposition{
		groups:    make([]Group, 0, len(groups)),
		edgeGroup: make(map[uint64]int),
		n:         n,
	}
	for gi, grp := range groups {
		if len(grp.Edges) == 0 {
			return nil, fmt.Errorf("decomp: group %d is empty", gi)
		}
		sub := graph.New(n)
		for _, e := range grp.Edges {
			if e.V >= n {
				return nil, fmt.Errorf("decomp: group %d edge %v out of range for n=%d", gi, e, n)
			}
			if e.U >= 0 && e.V >= 0 && e.U != e.V {
				if prev, dup := d.edgeGroup[edgeKey(graph.NewEdge(e.U, e.V))]; dup {
					return nil, fmt.Errorf("decomp: edge %v in groups %d and %d", e, prev, gi)
				}
			}
			sub.AddEdge(e.U, e.V)
		}
		if sub.M() != len(grp.Edges) {
			return nil, fmt.Errorf("decomp: group %d contains duplicate edges", gi)
		}
		norm := grp
		norm.Edges = sub.Edges()
		switch grp.Kind {
		case KindStar:
			root, ok := sub.IsStar()
			if !ok {
				return nil, fmt.Errorf("decomp: group %d is not a star: %v", gi, grp.Edges)
			}
			valid := true
			for _, e := range grp.Edges {
				if !e.Has(grp.Root) {
					valid = false
					break
				}
			}
			if !valid {
				norm.Root = root
			}
		case KindTriangle:
			tri, ok := sub.IsTriangle()
			if !ok {
				return nil, fmt.Errorf("decomp: group %d is not a triangle: %v", gi, grp.Edges)
			}
			norm.Tri = tri
		default:
			return nil, fmt.Errorf("decomp: group %d has invalid kind %v", gi, grp.Kind)
		}
		idx := len(d.groups)
		d.groups = append(d.groups, norm)
		for _, e := range norm.Edges {
			d.edgeGroup[edgeKey(e)] = idx
		}
	}
	return d, nil
}

// viaGraphs runs newViaGraphs, reporting a panic as panicked.
func viaGraphs(n int, groups []Group) (d *Decomposition, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	d, err = newViaGraphs(n, groups)
	return d, err, false
}

// randomGroups draws groups over vertices -1..n, in either orientation,
// with stars around a shared root, triangles over three vertices, and now
// and then a stray edge, a repeated edge, a self-loop or a bad kind, so
// that valid decompositions and every kind of refusal all turn up.
func randomGroups(rng *rand.Rand, n int) []Group {
	vertex := func() int {
		if rng.Intn(40) == 0 {
			return rng.Intn(3) - 1 + n*rng.Intn(2) // -1, 0, 1, n-1, n or n+1
		}
		return rng.Intn(n)
	}
	// other is mostly a vertex other than v.
	other := func(v int) int {
		if w := vertex(); w != v || rng.Intn(8) == 0 {
			return w
		}
		return (v + 1 + rng.Intn(n-1)) % n
	}
	edge := func(a, b int) graph.Edge {
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		return graph.Edge{U: a, V: b}
	}
	groups := make([]Group, 1+rng.Intn(4))
	for i := range groups {
		g := &groups[i]
		switch rng.Intn(8) {
		case 0:
			g.Kind = Kind(rng.Intn(4)) // invalid kinds 0 and 3 among the valid ones
		case 1, 2, 3:
			g.Kind = KindTriangle
			// z avoids y or x, so most draws are three distinct vertices
			// and the rest repeat one.
			x := vertex()
			y := other(x)
			z := other(y)
			if rng.Intn(2) == 0 {
				z = other(x)
			}
			g.Edges = []graph.Edge{edge(x, y), edge(x, z), edge(y, z)}
		default:
			g.Kind = KindStar
			g.Root = vertex()
			for k := rng.Intn(4); k >= 0; k-- {
				g.Edges = append(g.Edges, edge(g.Root, other(g.Root)))
			}
		}
		if rng.Intn(6) == 0 {
			g.Edges = append(g.Edges, edge(vertex(), vertex())) // a stray, repeated or self-loop edge
		}
		if rng.Intn(10) == 0 {
			g.Edges = nil
		}
		rng.Shuffle(len(g.Edges), func(a, b int) { g.Edges[a], g.Edges[b] = g.Edges[b], g.Edges[a] })
	}
	return groups
}

// TestNewMatchesGraphConstruction is the differential test of New against
// the per-group graph construction it replaced, on random groups: the same
// Decomposition or the same error wherever that construction returns one,
// and an error wherever it panics.
func TestNewMatchesGraphConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var built, refused, panics int
	for i := 0; i < 20000; i++ {
		n := 2 + rng.Intn(6)
		groups := randomGroups(rng, n)
		want, wantErr, panicked := viaGraphs(n, groups)
		got, err := New(n, groups)
		switch {
		case panicked:
			panics++
			if err == nil {
				t.Fatalf("n=%d %v: the graph construction panics, New accepted it as %v", n, groups, got)
			}
		case wantErr != nil:
			refused++
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("n=%d %v: New returned %v, want error %q", n, groups, err, wantErr)
			}
		default:
			built++
			if err != nil {
				t.Fatalf("n=%d %v: New refused with %v, want %v", n, groups, err, want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d %v: New built %v, want %v", n, groups, got, want)
			}
		}
	}
	t.Logf("%d built, %d refused, %d panicked in the graph construction", built, refused, panics)
	if built < 1000 || refused < 1000 || panics < 100 {
		t.Fatalf("generator too narrow: %d built, %d refused, %d panicked", built, refused, panics)
	}
}

// TestNewMemoryIsOEdges: New's cost follows the edges, not the vertex
// count. 20 one-edge stars over n = 100,000 vertices used to allocate
// 112 MB in 2.0M objects, one n-vertex graph per group.
func TestNewMemoryIsOEdges(t *testing.T) {
	const n, stars = 100_000, 20
	groups := make([]Group, stars)
	for i := range groups {
		groups[i] = Group{Kind: KindStar, Root: i, Edges: []graph.Edge{{U: i, V: n - 1 - i}}}
	}
	if _, err := New(n, groups); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() { _, _ = New(n, groups) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = New(n, groups)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("New: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > 2*stars+16 || bytes > 32<<10 {
		t.Fatalf("New of %d one-edge stars at n=%d: %.0f allocations and %d bytes, want at most %d and %d",
			stars, n, allocs, bytes, 2*stars+16, 32<<10)
	}
}
