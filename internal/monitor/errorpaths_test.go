package monitor

import (
	"testing"

	"syncstamp/internal/core"
	"syncstamp/internal/vector"
)

// These tests pin the package's behavior on degenerate and malformed input:
// empty stamp sets, and stamps of mismatched dimension (which the vector
// order deems incomparable by definition — see vector.Compare). The monitor
// functions must stay total: no panics, no fabricated order.

func TestEmptyStampSets(t *testing.T) {
	if pairs := ConcurrentMessages(nil); len(pairs) != 0 {
		t.Errorf("ConcurrentMessages(nil) = %v, want none", pairs)
	}
	if length, chain := CriticalPath(nil); length != 0 || chain != nil {
		t.Errorf("CriticalPath(nil) = %d, %v, want 0, nil", length, chain)
	}
	if got := Orphans(nil, []vector.V{{1, 0}}); len(got) != 0 {
		t.Errorf("Orphans(no stamps) = %v, want none", got)
	}
	if got := Orphans([]vector.V{{1, 0}}, nil); len(got) != 0 {
		t.Errorf("Orphans(no lost messages) = %v, want none", got)
	}
	if !ConsistentCut(nil) {
		t.Error("ConsistentCut(nil) = false; the empty cut is vacuously consistent")
	}
	conflicts, err := FindConflicts(nil, nil)
	if err != nil || len(conflicts) != 0 {
		t.Errorf("FindConflicts(nil, nil) = %v, %v, want none, nil", conflicts, err)
	}
}

// TestMismatchedStampLengths: vectors of different dimension are
// incomparable by the length rule, so they read as concurrent everywhere and
// never extend a chain or orphan each other.
func TestMismatchedStampLengths(t *testing.T) {
	stamps := []vector.V{{2, 0}, {1, 1, 1}}
	pairs := ConcurrentMessages(stamps)
	if len(pairs) != 1 || pairs[0] != (Pair{I: 0, J: 1}) {
		t.Errorf("mismatched lengths should be concurrent: %v", pairs)
	}
	if length, _ := CriticalPath(stamps); length != 1 {
		t.Errorf("critical path over incomparable stamps = %d, want 1", length)
	}
	if got := Orphans(stamps, []vector.V{{1, 0}}); len(got) != 1 || got[0] != 0 {
		t.Errorf("Orphans with a mismatched-length stamp = %v, want [0]", got)
	}
}

func TestFindConflictsMismatchedLabels(t *testing.T) {
	events := []core.EventStamp{
		{Proc: 0, Prev: vector.V{1, 0}, Succ: vector.V{2, 0}},
		{Proc: 1, Prev: vector.V{0, 1}, Succ: vector.V{0, 2}},
	}
	if _, err := FindConflicts(events, []string{"x"}); err == nil {
		t.Fatal("FindConflicts accepted 2 events with 1 resource label")
	}
	if _, err := FindConflicts(events[:1], []string{"x", "y"}); err == nil {
		t.Fatal("FindConflicts accepted 1 event with 2 resource labels")
	}
	// Equal lengths with no shared resource: total, no conflicts.
	conflicts, err := FindConflicts(events, []string{"x", "y"})
	if err != nil || len(conflicts) != 0 {
		t.Fatalf("FindConflicts distinct resources = %v, %v", conflicts, err)
	}
}

// TestConjunctiveDegenerate pins ConjunctivePredicate's edges: no
// participating processes yields the empty (vacuously consistent) cut, and
// any process with an empty candidate list means no cut at all.
func TestConjunctiveDegenerate(t *testing.T) {
	cut, ok, err := ConjunctivePredicate(nil)
	if err != nil || !ok || len(cut) != 0 {
		t.Errorf("ConjunctivePredicate(no processes) = %v, %v, %v; want empty cut, true, nil", cut, ok, err)
	}
	candidates := [][]core.EventStamp{
		{{Proc: 0, Prev: vector.V{1, 0}, Succ: vector.V{2, 0}}},
		{}, // process 1 never satisfies its predicate
	}
	cut, ok, err = ConjunctivePredicate(candidates)
	if err != nil || ok || cut != nil {
		t.Errorf("ConjunctivePredicate(empty list) = %v, %v, %v; want nil, false, nil", cut, ok, err)
	}
}
