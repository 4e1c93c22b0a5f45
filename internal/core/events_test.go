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

func TestStampAllFigure6WithInternals(t *testing.T) {
	// Interleave internal events into the Figure 6 computation and verify
	// prev/succ/counter bookkeeping.
	tr := &trace.Trace{N: 5}
	tr.MustAppend(trace.Internal(1))   // e0: before any message on P2
	tr.MustAppend(trace.Message(0, 1)) // m0 = (1,0,0)
	tr.MustAppend(trace.Internal(1))   // e1: between m0 and m2 on P2
	tr.MustAppend(trace.Internal(1))   // e2: same interval, c=1
	tr.MustAppend(trace.Message(3, 2)) // m1 = (0,0,1)
	tr.MustAppend(trace.Message(1, 2)) // m2 = (1,1,1)
	tr.MustAppend(trace.Internal(2))   // e3: after m2 on P3, no later message -> inf

	st, err := StampAll(tr, decomp.Figure3a())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Messages) != 3 || len(st.Internal) != 4 {
		t.Fatalf("messages=%d internal=%d", len(st.Messages), len(st.Internal))
	}
	e0, e1, e2, e3 := st.Internal[0], st.Internal[1], st.Internal[2], st.Internal[3]

	if !vector.Eq(e0.Prev, vector.V{0, 0, 0}) || !vector.Eq(e0.Succ, vector.V{1, 0, 0}) || e0.C != 0 {
		t.Fatalf("e0 = %v", e0)
	}
	if !vector.Eq(e1.Prev, vector.V{1, 0, 0}) || !vector.Eq(e1.Succ, vector.V{1, 1, 1}) || e1.C != 0 {
		t.Fatalf("e1 = %v", e1)
	}
	if e2.C != 1 || !vector.Eq(e2.Prev, e1.Prev) || !vector.Eq(e2.Succ, e1.Succ) {
		t.Fatalf("e2 = %v", e2)
	}
	if e3.Succ != nil || !vector.Eq(e3.Prev, vector.V{1, 1, 1}) {
		t.Fatalf("e3 = %v", e3)
	}

	// Orders: e0 → e1 (same process, different interval); e1 → e2 (counter);
	// e0 → e3 (cross-process via m2); e3 → nothing (succ = inf).
	if !e0.HappenedBefore(e1) || e1.HappenedBefore(e0) {
		t.Fatal("e0 → e1 wrong")
	}
	if !e1.HappenedBefore(e2) || e2.HappenedBefore(e1) {
		t.Fatal("counter ordering wrong")
	}
	if !e0.HappenedBefore(e3) {
		t.Fatal("e0 → e3 via message chain")
	}
	if e3.HappenedBefore(e0) || e3.HappenedBefore(e1) {
		t.Fatal("inf succ must never happen before anything")
	}
}

func TestEventStampString(t *testing.T) {
	e := EventStamp{Proc: 2, Prev: vector.V{1, 0}, Succ: nil, C: 3}
	s := e.String()
	for _, want := range []string{"inf", "c=3", "@P2", "(1,0)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestCrossProcessSameIntervalConcurrent(t *testing.T) {
	// P0 and P1 sync, both have internal events, sync again: the internal
	// events have identical prev/succ but different processes — concurrent.
	tr := &trace.Trace{N: 2}
	tr.MustAppend(trace.Message(0, 1))
	tr.MustAppend(trace.Internal(0))
	tr.MustAppend(trace.Internal(1))
	tr.MustAppend(trace.Message(0, 1))
	st, err := StampAll(tr, decomp.Approximate(graph.Path(2)))
	if err != nil {
		t.Fatal(err)
	}
	a, b := st.Internal[0], st.Internal[1]
	if !vector.Eq(a.Prev, b.Prev) || !vector.Eq(a.Succ, b.Succ) {
		t.Fatalf("expected identical intervals: %v vs %v", a, b)
	}
	if !a.ConcurrentWith(b) {
		t.Fatal("cross-process same-interval events must be concurrent")
	}
}

func TestProcessWithoutMessages(t *testing.T) {
	tr := &trace.Trace{N: 3}
	tr.MustAppend(trace.Internal(2))
	tr.MustAppend(trace.Internal(2))
	tr.MustAppend(trace.Message(0, 1))
	st, err := StampAll(tr, decomp.Approximate(graph.Complete(3)))
	if err != nil {
		t.Fatal(err)
	}
	a, b := st.Internal[0], st.Internal[1]
	if a.Succ != nil || b.Succ != nil {
		t.Fatal("events on a message-less process must have inf succ")
	}
	if !a.HappenedBefore(b) || b.HappenedBefore(a) {
		t.Fatal("counter must order a message-less process's events")
	}
}

func TestStampAllErrors(t *testing.T) {
	tr := &trace.Trace{N: 4}
	if _, err := StampAll(tr, decomp.Figure3a()); err == nil {
		t.Fatal("StampAll accepted mismatched N")
	}
	bad := &trace.Trace{N: 3, Ops: []trace.Op{{Kind: trace.OpKind(9)}}}
	if _, err := StampAll(bad, decomp.Approximate(graph.Complete(3))); err == nil {
		t.Fatal("StampAll accepted an invalid op kind")
	}
	off := &trace.Trace{N: 3}
	off.MustAppend(trace.Message(0, 2))
	if _, err := StampAll(off, decomp.Approximate(graph.Path(3))); err == nil {
		t.Fatal("StampAll accepted an uncovered channel")
	}
}

func TestEventStampsErrors(t *testing.T) {
	tr := &trace.Trace{N: 2}
	tr.MustAppend(trace.Internal(0))
	tr.MustAppend(trace.Message(0, 1))
	if _, err := EventStamps(tr, nil, 1); err == nil {
		t.Fatal("EventStamps accepted no stamps for a one-message trace")
	}
	if _, err := EventStamps(tr, []vector.V{{1}, {2}}, 1); err == nil {
		t.Fatal("EventStamps accepted two stamps for a one-message trace")
	}
	bad := &trace.Trace{N: 2, Ops: []trace.Op{{Kind: trace.OpKind(9)}}}
	if _, err := EventStamps(bad, nil, 1); err == nil {
		t.Fatal("EventStamps accepted an invalid op kind")
	}
}

// Property (E12, Theorem 9): the event stamps order internal events exactly
// as the happened-before oracle does.
func TestQuickTheorem9InternalEvents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(6), 0.5, rng)
		tr := trace.Generate(g, trace.GenOptions{
			Messages:     1 + rng.Intn(30),
			InternalProb: 0.4,
		}, rng)
		st, err := StampAll(tr, decomp.Approximate(g))
		if err != nil {
			return false
		}
		oracle := order.NewEventOracle(tr)
		// Map internal stamps to oracle event indices via op index.
		evByOp := map[int]int{}
		for k := 0; k < oracle.NumEvents(); k++ {
			if e := oracle.Event(k); e.Internal {
				evByOp[e.Op] = k
			}
		}
		for i := range st.Internal {
			for j := range st.Internal {
				if i == j {
					continue
				}
				a, b := st.Internal[i], st.Internal[j]
				want := oracle.HappenedBefore(evByOp[a.Op], evByOp[b.Op])
				if a.HappenedBefore(b) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: StampAll's message stamps equal StampTrace's.
func TestQuickStampAllConsistentWithStampTrace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(6), 0.5, rng)
		tr := trace.Generate(g, trace.GenOptions{Messages: 1 + rng.Intn(30), InternalProb: 0.3}, rng)
		dec := decomp.Approximate(g)
		st, err := StampAll(tr, dec)
		if err != nil {
			return false
		}
		direct, err := StampTrace(tr, dec)
		if err != nil {
			return false
		}
		if len(st.Messages) != len(direct) {
			return false
		}
		for i := range direct {
			if !vector.Eq(st.Messages[i], direct[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
