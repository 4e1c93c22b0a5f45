package wire

import (
	"bytes"
	"reflect"
	"testing"

	"syncstamp/internal/obs"
)

// TestMetricsFrameRoundTrip exercises the cluster-rollup frame: counters,
// gauges (negative values included), full histogram snapshots, and the
// snapshot of an empty registry.
func TestMetricsFrameRoundTrip(t *testing.T) {
	empty := obs.NewRegistry().Snapshot()
	frames := []*Frame{
		{Kind: KindMetrics, Metrics: &obs.Snapshot{
			Counters: map[string]int64{"frames_total": 1234, "rendezvous_total": 56},
			Gauges:   map[string]int64{"clock_skew": -7, "resident_records": 42},
			Histograms: map[string]obs.HistogramSnapshot{
				"latency_ns": {
					Edges:  []int64{1000, 2000, 5000},
					Counts: []int64{1, 0, 9, 2},
					Count:  12,
					Sum:    48211,
				},
			},
		}},
		{Kind: KindMetrics, Metrics: &empty},
	}
	got := pipeRoundTrip(t, 3, frames)
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !reflect.DeepEqual(frames[i], got[i]) {
			t.Errorf("frame %d: got %+v, want %+v", i, got[i], frames[i])
		}
	}
}

// TestMetricsFrameRejectsMalformed pins the validation: histograms must
// carry len(edges)+1 buckets, a METRICS frame needs its payload, and the
// decoder accepts names only in the strictly sorted order the encoder
// writes them in.
func TestMetricsFrameRejectsMalformed(t *testing.T) {
	enc := NewEncoder(bytes.NewBuffer(nil), 3)
	if err := enc.Encode(&Frame{Kind: KindMetrics}); err == nil {
		t.Fatal("METRICS without a payload encoded without error")
	}
	if err := enc.Encode(&Frame{Kind: KindMetrics, Metrics: &obs.Snapshot{
		Histograms: map[string]obs.HistogramSnapshot{"h": {Edges: []int64{1, 2}, Counts: []int64{1, 2}}},
	}}); err == nil {
		t.Fatal("histogram with wrong bucket count encoded without error")
	}

	// The decoder enforces sortedness on the incoming bytes: take a valid
	// frame and swap the two encoded names.
	var buf bytes.Buffer
	enc = NewEncoder(&buf, 3)
	if err := enc.Encode(&Frame{Kind: KindMetrics, Metrics: &obs.Snapshot{
		Counters: map[string]int64{"aa": 1, "bb": 2},
	}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	ai, bi := bytes.Index(raw, []byte("aa")), bytes.Index(raw, []byte("bb"))
	if ai < 0 || bi < 0 {
		t.Fatalf("metric names not found in wire bytes %v", raw)
	}
	copy(raw[ai:], "bb")
	copy(raw[bi:], "aa")
	if _, err := NewDecoder(bytes.NewReader(raw), 3).Decode(); err == nil {
		t.Fatal("decoder accepted unsorted metric names")
	}
}
