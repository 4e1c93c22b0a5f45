package core

import (
	"testing"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/order"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

// TestStamperExtendDynamicClients plays the paper's scalability story end to
// end: clients join a running client-server system one by one, the vector
// size stays at #servers, and timestamps issued before and after every join
// remain mutually comparable and exact.
func TestStamperExtendDynamicClients(t *testing.T) {
	const servers = 2
	dec, err := decomp.FromVertexCover(graph.ClientServer(servers, 1, false), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStamper(dec)

	full := &trace.Trace{N: servers + 1}
	var stamps []vector.V
	stamp := func(from, to int) {
		t.Helper()
		v, err := s.StampMessage(from, to)
		if err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, v)
		full.Ops = append(full.Ops, trace.Message(from, to))
	}

	// Initial client 2 talks to both servers.
	stamp(2, 0)
	stamp(2, 1)

	// Three more clients join, one at a time, mid-computation.
	for join := 0; join < 3; join++ {
		grown, v, err := dec.GrowStarVertex([]int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		dec = grown
		if err := s.Extend(dec); err != nil {
			t.Fatal(err)
		}
		full.N = dec.N()
		stamp(v, 0)
		stamp(0, 2) // old client keeps talking too
		stamp(v, 1)
	}

	if s.D() != servers {
		t.Fatalf("d grew to %d", s.D())
	}
	// All stamps — spanning every join — must encode ↦ exactly.
	p := order.MessagePoset(full)
	for i := range stamps {
		if len(stamps[i]) != servers {
			t.Fatalf("stamp %d has %d components", i, len(stamps[i]))
		}
		for j := range stamps {
			if i != j && vector.Less(stamps[i], stamps[j]) != p.Less(i, j) {
				t.Fatalf("Theorem 4 violated across joins at (%d,%d)", i, j)
			}
		}
	}
}

func TestStamperExtendRejectsDifferentD(t *testing.T) {
	s := NewStamper(decomp.Approximate(graph.Star(4, 0)))
	other := decomp.Approximate(graph.Complete(5))
	if err := s.Extend(other); err == nil {
		t.Fatal("Extend accepted a different d")
	}
}

func TestStamperExtendRejectsShrink(t *testing.T) {
	big, err := decomp.FromVertexCover(graph.ClientServer(1, 3, false), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	small, err := decomp.FromVertexCover(graph.ClientServer(1, 1, false), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStamper(big)
	if err := s.Extend(small); err == nil {
		t.Fatal("Extend accepted a shrink")
	}
}

func TestStamperExtendRejectsRegrouping(t *testing.T) {
	// Same d and N, but a channel moved to a different group: previously
	// issued stamps would become wrong.
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	a, err := decomp.New(3, []decomp.Group{
		{Kind: decomp.KindStar, Root: 1, Edges: []graph.Edge{{U: 0, V: 1}}},
		{Kind: decomp.KindStar, Root: 1, Edges: []graph.Edge{{U: 1, V: 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := decomp.New(3, []decomp.Group{
		{Kind: decomp.KindStar, Root: 1, Edges: []graph.Edge{{U: 1, V: 2}}},
		{Kind: decomp.KindStar, Root: 1, Edges: []graph.Edge{{U: 0, V: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStamper(a)
	if err := s.Extend(b); err == nil {
		t.Fatal("Extend accepted a regrouping")
	}
}

// groupMap is a GroupMap that is not a *decomp.Decomposition, like the
// analytic client-server topology of internal/load.
type groupMap struct{ *decomp.Decomposition }

// TestStamperExtendRefusesOtherGroupMaps: only a decomposition can grow, so
// a stamper built on any other group map refuses Extend, even to the very
// decomposition it wraps, and keeps stamping under its own map.
func TestStamperExtendRefusesOtherGroupMaps(t *testing.T) {
	dec := decomp.Approximate(graph.Star(4, 0))
	if err := NewStamper(dec).Extend(dec); err != nil {
		t.Fatalf("a decomposition stamper refused its own decomposition: %v", err)
	}
	s := NewStamper(groupMap{dec})
	if err := s.Extend(dec); err == nil {
		t.Fatal("Extend accepted a stamper built on a non-decomposition group map")
	}
	want, err := NewStamper(dec).StampMessage(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.StampMessage(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !vector.Eq(got, want) {
		t.Fatalf("stamp under the wrapped map %v, under the decomposition %v", got, want)
	}
}
