package obs

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestHistogramMerge: merging a snapshot must equal having observed the
// union of samples on one histogram.
func TestHistogramMerge(t *testing.T) {
	edges := []int64{1, 10, 100}
	a, b, union := NewHistogram(edges), NewHistogram(edges), NewHistogram(edges)
	for _, v := range []int64{0, 5, 50, 500} {
		a.Observe(v)
		union.Observe(v)
	}
	for _, v := range []int64{1, 10, 1000} {
		b.Observe(v)
		union.Observe(v)
	}
	if err := a.Merge(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got, want := a.Snapshot(), union.Snapshot()
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("merged snapshot %s, want %s", gj, wj)
	}

	// Merging an empty snapshot (e.g. a disabled peer) is a no-op.
	if err := a.Merge(HistogramSnapshot{}); err != nil {
		t.Fatalf("empty snapshot merge: %v", err)
	}

	// Mismatched edges must be rejected, not silently mixed.
	other := NewHistogram([]int64{1, 2})
	other.Observe(1)
	if err := a.Merge(other.Snapshot()); err == nil {
		t.Fatal("merging mismatched edges must error")
	}
	odd := NewHistogram(edges)
	odd.Observe(1)
	s := odd.Snapshot()
	s.Edges = []int64{2, 20, 200}
	if err := a.Merge(s); err == nil {
		t.Fatal("merging different edge values must error")
	}
}

// TestRegistryMergeCommutativeAssociative: rollups arrive from leaves and
// remote nodes in arbitrary order, so Merge must be order-insensitive. We
// compare snapshot JSON, which is itself deterministic.
func TestRegistryMergeCommutativeAssociative(t *testing.T) {
	mk := func(seed int64) Snapshot {
		r := NewRegistry()
		r.Counter("frames_total").Add(3 + seed)
		r.Counter("c_only_" + string(rune('a'+seed))).Add(seed + 1)
		r.Gauge("resident").Set(10 * seed)
		h := r.Histogram("latency", []int64{1, 10})
		h.Observe(seed)
		h.Observe(100 * seed)
		return r.Snapshot()
	}
	snaps := []Snapshot{mk(0), mk(1), mk(2)}

	merged := func(order []int) string {
		r := NewRegistry()
		for _, i := range order {
			if err := r.Merge(snaps[i]); err != nil {
				t.Fatal(err)
			}
		}
		j, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	want := merged([]int{0, 1, 2})
	for _, order := range [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		if got := merged(order); got != want {
			t.Fatalf("merge order %v yields %s, want %s", order, got, want)
		}
	}

	// Associativity: (A+B)+C == A+(B+C).
	left := NewRegistry()
	if err := left.Merge(snaps[0]); err != nil {
		t.Fatal(err)
	}
	if err := left.Merge(snaps[1]); err != nil {
		t.Fatal(err)
	}
	ab := NewRegistry()
	if err := ab.Merge(snaps[1]); err != nil {
		t.Fatal(err)
	}
	if err := ab.Merge(snaps[2]); err != nil {
		t.Fatal(err)
	}
	right := NewRegistry()
	if err := right.Merge(snaps[0]); err != nil {
		t.Fatal(err)
	}
	if err := right.Merge(ab.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := left.Merge(snaps[2]); err != nil {
		t.Fatal(err)
	}
	lj, _ := json.Marshal(left.Snapshot())
	rj, _ := json.Marshal(right.Snapshot())
	if string(lj) != string(rj) {
		t.Fatalf("associativity: %s vs %s", lj, rj)
	}

	// Exactness: merged counters are the integer sums of the inputs.
	sum := NewRegistry()
	for _, s := range snaps {
		if err := sum.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	snap := sum.Snapshot()
	if got := snap.Counters["frames_total"]; got != 3+4+5 {
		t.Fatalf("frames_total = %d, want 12", got)
	}
	if got := snap.Gauges["resident"]; got != 0+10+20 {
		t.Fatalf("resident = %d, want 30", got)
	}
	if got := snap.Histograms["latency"].Count; got != 6 {
		t.Fatalf("latency count = %d, want 6", got)
	}

	// Nil-receiver and nil-merge stay inert.
	var nilr *Registry
	if err := nilr.Merge(snaps[0]); err != nil {
		t.Fatalf("nil registry merge: %v", err)
	}
}

// TestSnapshotJSONRoundTrip: the JSON /metrics serves is also the METRICS
// frame's payload, the one encoding of a registry snapshot, so a snapshot
// must survive json.Marshal and Unmarshal exactly. The cases are a negative
// gauge, a counter past float64's exact range, a histogram with every
// bucket filled, and an empty registry's snapshot.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total").Add(1<<53 + 1)
	r.Gauge("clock_skew").Set(-7)
	h := r.Histogram("latency_ns", []int64{1000, 2000, 5000})
	for _, v := range []int64{10, 1500, 3000, 9000} {
		h.Observe(v)
	}
	for _, want := range []Snapshot{r.Snapshot(), NewRegistry().Snapshot()} {
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got Snapshot
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s round-tripped to %+v, want %+v", b, got, want)
		}
	}
}

// TestRegistryMergeRefusesMalformedHistogram: a snapshot may come from
// another node, so a histogram whose counts are not one per bucket, or
// whose edges do not ascend, is refused with an error, both into a fresh
// registry and into one that already holds the histogram. Non-ascending
// edges used to panic in NewHistogram.
func TestRegistryMergeRefusesMalformedHistogram(t *testing.T) {
	bad := []HistogramSnapshot{
		{Edges: []int64{1, 2}, Counts: []int64{1, 2}, Count: 3},
		{Edges: []int64{1, 2}, Counts: []int64{1, 2, 3, 4}, Count: 10},
		{Edges: []int64{5, 1}, Counts: []int64{0, 0, 0}},
		{Edges: []int64{1, 1}, Counts: []int64{0, 0, 0}},
	}
	for _, hs := range bad {
		held := NewRegistry()
		held.Histogram("h", []int64{1, 2})
		for _, r := range []*Registry{NewRegistry(), held} {
			if err := r.Merge(Snapshot{Histograms: map[string]HistogramSnapshot{"h": hs}}); err == nil {
				t.Errorf("merged histogram %+v", hs)
			}
		}
	}
}
