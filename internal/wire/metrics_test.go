package wire

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestMetricsFrameRoundTrip pins the METRICS payload as opaque bytes: a
// /metrics-shaped JSON snapshot, a one-byte payload and the largest payload
// a frame holds each decode byte for byte. The one-byte frame follows the
// JSON one, so a payload still aliasing the decoder's reused buffer would
// read back changed.
func TestMetricsFrameRoundTrip(t *testing.T) {
	snapshot := []byte(`{"counters":{"frames_total":1234},"gauges":{"clock_skew":-7},` +
		`"histograms":{"latency_ns":{"edges":[1000,2000],"counts":[1,0,9],"count":10,"sum":48211}}}`)
	frames := []*Frame{
		{Kind: KindMetrics, Metrics: snapshot},
		{Kind: KindMetrics, Metrics: []byte("x")},
		{Kind: KindMetrics, Metrics: bytes.Repeat([]byte("m"), MaxFrame-1)},
	}
	got := pipeRoundTrip(t, 3, frames)
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !reflect.DeepEqual(frames[i], got[i]) {
			t.Errorf("frame %d: payload of %d bytes decoded as %d bytes %.40q", i, len(frames[i].Metrics), len(got[i].Metrics), got[i].Metrics)
		}
	}
}

// TestMetricsFrameRejectsMalformed pins the validation: a METRICS frame
// needs a payload on both sides of the codec, and the payload must fit a
// frame beside its kind byte.
func TestMetricsFrameRejectsMalformed(t *testing.T) {
	enc := NewEncoder(io.Discard, 3)
	for _, payload := range [][]byte{nil, {}} {
		if err := enc.Encode(&Frame{Kind: KindMetrics, Metrics: payload}); err == nil || !strings.Contains(err.Error(), "without a payload") {
			t.Errorf("METRICS with payload %v encoded: err = %v", payload, err)
		}
	}
	if err := enc.Encode(&Frame{Kind: KindMetrics, Metrics: make([]byte, MaxFrame)}); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("METRICS frame over MaxFrame encoded: err = %v", err)
	}
	if _, err := NewDecoder(bytes.NewReader([]byte{1, byte(KindMetrics)}), 3).Decode(); err == nil || !strings.Contains(err.Error(), "without a payload") {
		t.Errorf("METRICS frame without a payload decoded: err = %v", err)
	}
}
