package monitor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/order"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

func stampFigure1(t *testing.T) []vector.V {
	t.Helper()
	tr := trace.Figure1()
	stamps, err := core.StampTrace(tr, decomp.Approximate(tr.Topology()))
	if err != nil {
		t.Fatal(err)
	}
	return stamps
}

func TestConcurrentMessagesFigure1(t *testing.T) {
	stamps := stampFigure1(t)
	pairs := ConcurrentMessages(stamps)
	// m1 ‖ m2 is stated by the paper: pair (0, 1) must be present.
	found := false
	for _, p := range pairs {
		if p == (Pair{I: 0, J: 1}) {
			found = true
		}
		if p.I >= p.J {
			t.Fatalf("pair %v not normalized", p)
		}
	}
	if !found {
		t.Fatalf("m1 ‖ m2 not detected; pairs = %v", pairs)
	}
}

// Property: ConcurrentMessages agrees with the poset oracle.
func TestQuickConcurrentMessagesMatchOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(6), 0.5, rng)
		tr := trace.Generate(g, trace.GenOptions{Messages: 1 + rng.Intn(30)}, rng)
		stamps, err := core.StampTrace(tr, decomp.Approximate(g))
		if err != nil {
			return false
		}
		p := order.MessagePoset(tr)
		want := map[Pair]bool{}
		for i := 0; i < p.N(); i++ {
			for j := i + 1; j < p.N(); j++ {
				if p.Concurrent(i, j) {
					want[Pair{I: i, J: j}] = true
				}
			}
		}
		got := ConcurrentMessages(stamps)
		if len(got) != len(want) {
			return false
		}
		for _, pr := range got {
			if !want[pr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalPathFigure1(t *testing.T) {
	// The paper: a synchronous chain of size 4 from m1 to m5 — and m6
	// extends it (m5 ▷ m6 via P1), so the critical path is at least 5.
	stamps := stampFigure1(t)
	length, chain := CriticalPath(stamps)
	if length < 4 {
		t.Fatalf("critical path %d < 4", length)
	}
	if len(chain) != length {
		t.Fatalf("witness chain %v does not match length %d", chain, length)
	}
	for k := 1; k < len(chain); k++ {
		if !vector.Less(stamps[chain[k-1]], stamps[chain[k]]) {
			t.Fatalf("witness not a chain at %d: %v", k, chain)
		}
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	l, chain := CriticalPath(nil)
	if l != 0 || chain != nil {
		t.Fatalf("empty critical path = %d, %v", l, chain)
	}
}

// Property: CriticalPath equals the longest chain computed by brute force
// over the poset.
func TestQuickCriticalPathMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(6), 0.5, rng)
		tr := trace.Generate(g, trace.GenOptions{Messages: 1 + rng.Intn(20)}, rng)
		stamps, err := core.StampTrace(tr, decomp.Approximate(g))
		if err != nil {
			return false
		}
		p := order.MessagePoset(tr)
		// Longest chain by DP over topological order (indices are one).
		n := p.N()
		dp := make([]int, n)
		best := 0
		for i := 0; i < n; i++ {
			dp[i] = 1
			for j := 0; j < i; j++ {
				if p.Less(j, i) && dp[j]+1 > dp[i] {
					dp[i] = dp[j] + 1
				}
			}
			if dp[i] > best {
				best = dp[i]
			}
		}
		got, _ := CriticalPath(stamps)
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFindConflicts(t *testing.T) {
	// Two processes sync, then both touch resource "x" concurrently, then
	// one touches "y" alone.
	tr := &trace.Trace{N: 2}
	tr.MustAppend(trace.Message(0, 1))
	tr.MustAppend(trace.Internal(0)) // x
	tr.MustAppend(trace.Internal(1)) // x -> conflict with the first
	tr.MustAppend(trace.Message(0, 1))
	tr.MustAppend(trace.Internal(0)) // y, after the sync: no conflict
	st, err := core.StampAll(tr, decomp.Approximate(graph.Path(2)))
	if err != nil {
		t.Fatal(err)
	}
	conflicts, err := FindConflicts(st.Internal, []string{"x", "x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 1 || conflicts[0].A != 0 || conflicts[0].B != 1 || conflicts[0].Resource != "x" {
		t.Fatalf("conflicts = %v", conflicts)
	}
}

func TestFindConflictsLengthMismatch(t *testing.T) {
	if _, err := FindConflicts(make([]core.EventStamp, 2), []string{"x"}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestConsistentCut(t *testing.T) {
	tr := &trace.Trace{N: 2}
	tr.MustAppend(trace.Internal(0)) // e0
	tr.MustAppend(trace.Message(0, 1))
	tr.MustAppend(trace.Internal(1)) // e1: e0 → e1
	tr.MustAppend(trace.Internal(0)) // e2: concurrent with e1
	st, err := core.StampAll(tr, decomp.Approximate(graph.Path(2)))
	if err != nil {
		t.Fatal(err)
	}
	e0, e1, e2 := st.Internal[0], st.Internal[1], st.Internal[2]
	if ConsistentCut([]core.EventStamp{e0, e1}) {
		t.Fatal("cut {e0, e1} is inconsistent (e0 → e1)")
	}
	if !ConsistentCut([]core.EventStamp{e1, e2}) {
		t.Fatal("cut {e1, e2} is consistent")
	}
	if !ConsistentCut(nil) {
		t.Fatal("empty cut is consistent")
	}
}

func TestOrphans(t *testing.T) {
	// P0-P1-P2 path; P1 participates in everything, so if P1 loses its
	// post-checkpoint messages, downstream messages are orphaned.
	tr := &trace.Trace{N: 3}
	tr.MustAppend(trace.Message(0, 1)) // m0: checkpointed
	tr.MustAppend(trace.Message(1, 2)) // m1: lost (P1 after checkpoint)
	tr.MustAppend(trace.Message(2, 1)) // m2: depends on m1 -> orphan
	tr.MustAppend(trace.Message(0, 1)) // m3: depends via P1 -> orphan
	stamps, err := core.StampTrace(tr, decomp.Approximate(graph.Path(3)))
	if err != nil {
		t.Fatal(err)
	}
	orphans := Orphans(stamps, []vector.V{stamps[1]})
	want := []int{1, 2, 3}
	if len(orphans) != len(want) {
		t.Fatalf("orphans = %v, want %v", orphans, want)
	}
	for i := range want {
		if orphans[i] != want[i] {
			t.Fatalf("orphans = %v, want %v", orphans, want)
		}
	}
	// m0 must survive.
	for _, o := range orphans {
		if o == 0 {
			t.Fatal("checkpointed message rolled back")
		}
	}
	if got := Orphans(stamps, nil); len(got) != 0 {
		t.Fatalf("no lost messages must yield no orphans, got %v", got)
	}
}

// Property: the orphan set equals the up-set of the lost messages in the
// poset (plus the lost messages themselves).
func TestQuickOrphansMatchUpSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(6), 0.5, rng)
		tr := trace.Generate(g, trace.GenOptions{Messages: 2 + rng.Intn(25)}, rng)
		stamps, err := core.StampTrace(tr, decomp.Approximate(g))
		if err != nil {
			return false
		}
		p := order.MessagePoset(tr)
		lostIdx := rng.Intn(len(stamps))
		got := Orphans(stamps, []vector.V{stamps[lostIdx]})
		want := map[int]bool{lostIdx: true}
		for _, u := range p.UpSet(lostIdx) {
			want[u] = true
		}
		if len(got) != len(want) {
			return false
		}
		for _, o := range got {
			if !want[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the survivor set (complement of the orphan set) is downward
// closed in ↦ — the recovery line is always consistent.
func TestQuickSurvivorsDownwardClosed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(6), 0.5, rng)
		tr := trace.Generate(g, trace.GenOptions{Messages: 2 + rng.Intn(30)}, rng)
		stamps, err := core.StampTrace(tr, decomp.Approximate(g))
		if err != nil {
			return false
		}
		// Lose a random subset of messages.
		var lost []vector.V
		for i := range stamps {
			if rng.Intn(4) == 0 {
				lost = append(lost, stamps[i])
			}
		}
		orphans := Orphans(stamps, lost)
		orphaned := map[int]bool{}
		for _, o := range orphans {
			orphaned[o] = true
		}
		p := order.MessagePoset(tr)
		for i := range stamps {
			if orphaned[i] {
				continue
			}
			for _, o := range orphans {
				if p.Less(o, i) {
					return false // survivor depends on an orphan
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
