package core

import (
	"testing"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/vector"
)

// TestAdoptEquivalentToMerge checks the wire protocol's sender path: the
// receiver merges and the sender adopts the resulting stamp, ending in
// exactly the state the symmetric Figure 5 merge would produce.
func TestAdoptEquivalentToMerge(t *testing.T) {
	g := graph.Path(3)
	dec := decomp.Best(g)

	// Reference: both sides merge symmetrically (csp semantics).
	ref0, ref1 := NewClock(0, dec), NewClock(1, dec)
	refStamp, err := ref1.Merge(ref0.Current(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref0.Merge(vector.New(dec.D()), 1); err != nil {
		t.Fatal(err)
	}

	// Wire path: receiver merges, sender adopts the ACK'd stamp.
	s, r := NewClock(0, dec), NewClock(1, dec)
	stamp, err := r.Merge(s.Current(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Adopt(stamp, 1); err != nil {
		t.Fatal(err)
	}
	if !vector.Eq(stamp, refStamp) {
		t.Fatalf("wire stamp %v, reference stamp %v", stamp, refStamp)
	}
	if !vector.Eq(s.Current(), ref0.Current()) {
		t.Fatalf("sender clock %v after Adopt, reference %v", s.Current(), ref0.Current())
	}
}

func TestAdoptRejections(t *testing.T) {
	g := graph.Path(3)
	dec := decomp.Best(g)
	c := NewClock(1, dec)
	if _, err := c.Merge(vector.New(dec.D()), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Adopt(vector.New(dec.D()), 0); err == nil {
		t.Fatal("accepted a stamp that does not dominate the clock")
	}
	if err := c.Adopt(vector.New(dec.D()+1), 0); err == nil {
		t.Fatal("accepted a stamp of the wrong length")
	}
	big := vector.New(dec.D())
	for k := range big {
		big[k] = 99
	}
	// Path(3) has edges (0,1) and (1,2) only; (0,2) is not covered, and
	// process 0 adopting over that channel must fail.
	if err := NewClock(0, dec).Adopt(big, 2); err == nil {
		t.Fatal("accepted a stamp over an uncovered channel")
	}
}

// TestAdoptCopiesIntoOwnVector pins Adopt's reuse: a warm Adopt allocates
// nothing, and the clock keeps no alias of the stamp it adopted, so the
// caller mutating the stamp afterwards leaves the clock unchanged.
func TestAdoptCopiesIntoOwnVector(t *testing.T) {
	dec := decomp.Best(graph.Path(3))
	s, r := NewClock(0, dec), NewClock(1, dec)
	stamp, err := r.Merge(s.Current(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Adopt(stamp, 1); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Adopt(stamp, 1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm Adopt allocates %.1f objects, want 0", allocs)
	}
	want := stamp.Clone()
	for k := range stamp {
		stamp[k] += 100
	}
	if got := s.Current(); !vector.Eq(got, want) {
		t.Fatalf("clock %v after the adopted stamp was mutated, want %v", got, want)
	}
}
