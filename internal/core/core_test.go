package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/order"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

func TestE4Figure6ExactTimestamps(t *testing.T) {
	// E4: the worked example of Figure 6 under the Figure 3(a)
	// decomposition must produce exactly the narrated vectors.
	tr := trace.Figure6()
	dec := decomp.Figure3a()
	got, err := StampTrace(tr, dec)
	if err != nil {
		t.Fatal(err)
	}
	want := []vector.V{
		{1, 0, 0}, // P1 -> P2 on E1
		{0, 0, 1}, // P4 -> P3 on E3
		{1, 1, 1}, // P2 -> P3 on E2 (the paper's narrated example)
		{2, 0, 1}, // P1 -> P4 on E1
		{1, 1, 2}, // P5 -> P3 on E3
		{1, 2, 2}, // P2 -> P5 on E2
	}
	if len(got) != len(want) {
		t.Fatalf("got %d stamps, want %d", len(got), len(want))
	}
	for i := range want {
		if !vector.Eq(got[i], want[i]) {
			t.Errorf("message %d: stamp %v, want %v", i, got[i], want[i])
		}
	}
}

func TestStamperMatchesClockProtocol(t *testing.T) {
	// The sequential Stamper must agree with the message+ack Clock protocol:
	// sender piggybacks Current, receiver Merges, acks with the pre-merge
	// snapshot... the distributed exchange is symmetric, so simulate it
	// exactly as Figure 5 writes it and compare.
	topo := graph.Complete(4)
	dec := decomp.Approximate(topo)
	rng := rand.New(rand.NewSource(9))
	tr := trace.Generate(topo, trace.GenOptions{Messages: 60}, rng)

	s := NewStamper(dec)
	clocks := make([]*Clock, 4)
	for i := range clocks {
		clocks[i] = NewClock(i, dec)
	}
	for _, op := range tr.Ops {
		want, err := s.StampMessage(op.From, op.To)
		if err != nil {
			t.Fatal(err)
		}
		// Figure 5: sender sends v_i; receiver acks with its pre-merge v_j,
		// then merges; sender merges the ack.
		sender, receiver := clocks[op.From], clocks[op.To]
		piggyback := sender.Current()
		ack := receiver.Current()
		recvStamp, err := receiver.Merge(piggyback, op.From)
		if err != nil {
			t.Fatal(err)
		}
		sendStamp, err := sender.Merge(ack, op.To)
		if err != nil {
			t.Fatal(err)
		}
		if !vector.Eq(recvStamp, sendStamp) {
			t.Fatalf("sender and receiver disagree: %v vs %v", sendStamp, recvStamp)
		}
		if !vector.Eq(want, sendStamp) {
			t.Fatalf("clock protocol %v != sequential stamper %v", sendStamp, want)
		}
	}
}

func TestClockErrors(t *testing.T) {
	dec := decomp.Figure3a()
	c := NewClock(0, dec)
	if c.Proc() != 0 {
		t.Fatal("Proc wrong")
	}
	// K5 is fully covered, so use a sparse decomposition for the error.
	sparse := decomp.Approximate(graph.Path(3))
	c2 := NewClock(0, sparse)
	if _, err := c2.Merge(vector.New(sparse.D()), 2); err == nil {
		t.Fatal("Merge accepted an uncovered channel")
	}
	// A self or out-of-range peer is an uncovered channel too: an error,
	// never a panic, and the clock is left as it was.
	for _, peer := range []int{0, -1, 3, 1 << 40} {
		if _, err := c2.Merge(vector.New(sparse.D()), peer); err == nil || !strings.Contains(err.Error(), "not covered") {
			t.Fatalf("Merge with peer %d: err %v, want a not-covered error", peer, err)
		}
		if err := c2.Adopt(vector.New(sparse.D()), peer); err == nil || !strings.Contains(err.Error(), "not covered") {
			t.Fatalf("Adopt with peer %d: err %v, want a not-covered error", peer, err)
		}
	}
	if got := c2.Current(); !vector.Eq(got, vector.New(sparse.D())) {
		t.Fatalf("refused exchanges moved the clock to %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock out of range did not panic")
		}
	}()
	NewClock(9, dec)
}

func TestStamperErrors(t *testing.T) {
	dec := decomp.Approximate(graph.Path(3))
	s := NewStamper(dec)
	cases := [][2]int{{0, 0}, {-1, 1}, {0, 3}, {0, 2}} // last: uncovered channel
	for _, c := range cases {
		if _, err := s.StampMessage(c[0], c[1]); err != nil {
			continue
		}
		t.Fatalf("StampMessage(%d,%d) succeeded", c[0], c[1])
	}
}

func TestStampTraceMismatchedN(t *testing.T) {
	tr := &trace.Trace{N: 4}
	if _, err := StampTrace(tr, decomp.Figure3a()); err == nil {
		t.Fatal("StampTrace accepted mismatched process counts")
	}
}

func TestStampTraceOffTopology(t *testing.T) {
	tr := &trace.Trace{N: 3}
	tr.MustAppend(trace.Message(0, 2))
	dec := decomp.Approximate(graph.Path(3)) // covers (0,1) and (1,2) only
	if _, err := StampTrace(tr, dec); err == nil {
		t.Fatal("StampTrace accepted an uncovered message")
	}
}

func TestClockOf(t *testing.T) {
	dec := decomp.Figure3a()
	s := NewStamper(dec)
	if _, err := s.StampMessage(0, 1); err != nil {
		t.Fatal(err)
	}
	v := s.ClockOf(0)
	if !vector.Eq(v, vector.V{1, 0, 0}) {
		t.Fatalf("ClockOf(0) = %v", v)
	}
	v[0] = 99
	if s.ClockOf(0)[0] == 99 {
		t.Fatal("ClockOf must return a snapshot")
	}
}

// decompositions returns a variety of valid decompositions for a topology,
// exercising Theorem 4's independence from the particular decomposition.
func decompositions(g *graph.Graph) []*decomp.Decomposition {
	return []*decomp.Decomposition{
		decomp.Approximate(g),
		decomp.StarOnly(g),
		decomp.TrivialStars(g),
		decomp.TrivialWithTriangle(g),
	}
}

// TestTheorem4KnownTopologies drives the Theorem 4 equivalence on fixed
// topology families with a long random computation each.
func TestTheorem4KnownTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	topologies := []struct {
		name string
		g    *graph.Graph
	}{
		{"star", graph.Star(6, 0)},
		{"triangle", graph.Triangle()},
		{"path", graph.Path(5)},
		{"cycle", graph.Cycle(6)},
		{"complete", graph.Complete(5)},
		{"clientserver", graph.ClientServer(2, 6, false)},
		{"tree", graph.Figure4Tree()},
		{"figure2b", graph.Figure2b()},
	}
	for _, tc := range topologies {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.Generate(tc.g, trace.GenOptions{Messages: 120, Hotspot: 0.4}, rng)
			p := order.MessagePoset(tr)
			for _, dec := range decompositions(tc.g) {
				stamps, err := StampTrace(tr, dec)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < len(stamps); i++ {
					for j := 0; j < len(stamps); j++ {
						if i == j {
							continue
						}
						if got, want := Precedes(stamps[i], stamps[j]), p.Less(i, j); got != want {
							t.Fatalf("d=%d messages %d,%d: precedes=%v want %v (%v vs %v)",
								dec.D(), i, j, got, want, stamps[i], stamps[j])
						}
					}
				}
			}
		})
	}
}

// Property (E7): for random connected topologies, random computations and
// the Figure 7 decomposition, vector order equals ↦ exactly (Theorem 4).
func TestQuickTheorem4(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(8), 0.4, rng)
		dec := decomp.Approximate(g)
		tr := trace.Generate(g, trace.GenOptions{
			Messages: 1 + rng.Intn(60),
			Hotspot:  rng.Float64(),
		}, rng)
		stamps, err := StampTrace(tr, dec)
		if err != nil {
			return false
		}
		p := order.MessagePoset(tr)
		for i := range stamps {
			for j := range stamps {
				if i == j {
					continue
				}
				if Precedes(stamps[i], stamps[j]) != p.Less(i, j) {
					return false
				}
				if Concurrent(stamps[i], stamps[j]) != p.Concurrent(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: message timestamps never shrink along a process and the g-th
// component is strictly incremented at each message (Equation (3)).
func TestQuickStampMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(6), 0.5, rng)
		dec := decomp.Approximate(g)
		s := NewStamper(dec)
		tr := trace.Generate(g, trace.GenOptions{Messages: 40}, rng)
		prev := make(map[int]vector.V)
		for _, op := range tr.Ops {
			stamp, err := s.StampMessage(op.From, op.To)
			if err != nil {
				return false
			}
			for _, p := range []int{op.From, op.To} {
				if old, ok := prev[p]; ok && !vector.Less(old, stamp) {
					return false
				}
				prev[p] = stamp
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStampMessageClientServer(b *testing.B) {
	g := graph.ClientServer(4, 100, false)
	dec := decomp.Approximate(g)
	s := NewStamper(dec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.StampMessage(0, 4+(i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStampMessageComplete64(b *testing.B) {
	g := graph.Complete(64)
	dec := decomp.Approximate(g)
	s := NewStamper(dec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.StampMessage(i%64, (i+1)%64); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: the order induced by the stamps is independent of which valid
// decomposition is used — different d, same relation (Theorem 4 is per
// decomposition, so any two must agree with the oracle and hence each
// other).
func TestQuickDecompositionIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(7), 0.5, rng)
		tr := trace.Generate(g, trace.GenOptions{Messages: 1 + rng.Intn(40)}, rng)
		a, err := StampTrace(tr, decomp.Approximate(g))
		if err != nil {
			return false
		}
		b, err := StampTrace(tr, decomp.TrivialStars(g))
		if err != nil {
			return false
		}
		for i := range a {
			for j := range a {
				if i != j && Precedes(a[i], a[j]) != Precedes(b[i], b[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
