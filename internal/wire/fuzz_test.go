package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"syncstamp/internal/vector"
)

// FuzzDecodeFrame feeds arbitrary bytes to the decoder: it must never
// panic, and every frame it accepts must re-encode and decode to the same
// frame (on a fresh codec pair, so baselines restart at zero on both sides).
// A second decoder reads the same input into one reused Frame, pre-filled
// from a HELLO, and must accept the same frames with equal results. The
// target cannot see allocation; TestDecodeBoundsAllocation pins that a
// short frame claiming a long list fails before allocating for it.
func FuzzDecodeFrame(f *testing.F) {
	seed := func(frames []*Frame, d int) []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, d)
		for _, fr := range frames {
			if err := enc.Encode(fr); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add([]byte{}, 3)
	f.Add([]byte{0x01, 0x05}, 3)
	f.Add(seed([]*Frame{
		{Kind: KindHello, Role: RoleReport, Node: 1, Procs: []int{0, 2}, Digest: 99, Epoch: 2},
		{Kind: KindSyn, From: 0, To: 2, Seq: 1, Vec: vector.V{1, 0, 4}},
		{Kind: KindAck, From: 2, To: 0, Seq: 1, Vec: vector.V{1, 1, 4}},
		{Kind: KindInternal, Proc: 2, Note: "n"},
		{Kind: KindBye},
	}, 3), 3)
	f.Add(seed([]*Frame{{Kind: KindMetrics, Metrics: []byte(`{"counters":{"a":3,"b":1},"gauges":{"g":-2},` +
		`"histograms":{"h":{"edges":[1,10],"counts":[2,0,1],"count":3,"sum":14}}}`)}}, 3), 3)
	f.Fuzz(func(t *testing.T, in []byte, d int) {
		if d < 0 || d > 64 || len(in) > 1<<16 {
			return
		}
		dec := NewDecoder(bytes.NewReader(in), d)
		var accepted []*Frame
		for len(accepted) < 64 {
			fr, err := dec.Decode()
			if err != nil {
				break
			}
			accepted = append(accepted, fr)
		}
		reused := NewDecoder(bytes.NewReader(in), d)
		into := Frame{Kind: KindHello, Role: RoleReport, Node: 7, Procs: []int{1, 2}, Digest: 5, Epoch: 3}
		for i, want := range accepted {
			if err := reused.DecodeInto(&into); err != nil {
				t.Fatalf("frame %d: Decode accepted it, DecodeInto failed: %v", i, err)
			}
			if !reflect.DeepEqual(&into, want) {
				t.Fatalf("frame %d decoded into a reused Frame: got %+v, want %+v", i, into, *want)
			}
		}
		if len(accepted) == 0 {
			return
		}
		// Re-encode what was accepted and decode it again: frames must
		// survive unchanged. Fresh codecs are used on both sides, so the
		// delta baselines agree even though the fuzzed input's implicit
		// baselines may have drifted.
		var buf bytes.Buffer
		enc := NewEncoder(&buf, d)
		for _, fr := range accepted {
			if err := enc.Encode(fr); err != nil {
				t.Fatalf("re-encoding accepted frame %+v: %v", fr, err)
			}
		}
		dec2 := NewDecoder(&buf, d)
		for i, want := range accepted {
			got, err := dec2.Decode()
			if err != nil {
				t.Fatalf("re-decoding frame %d: %v", i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("frame %d changed: got %+v, want %+v", i, got, want)
			}
		}
		if _, err := dec2.Decode(); err != io.EOF {
			t.Fatalf("trailing data after re-encoded frames: %v", err)
		}
	})
}
