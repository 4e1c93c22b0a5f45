package wire

import (
	"bytes"
	"io"
	"testing"

	"syncstamp/internal/vector"
)

// synFrame builds a warm-path SYN: a d-component vector with a few
// components advanced, the shape a busy channel pair settles into.
func synFrame(d int, tick uint64) *Frame {
	v := vector.New(d)
	v[0] = int(tick)
	v[1] = int(tick / 2)
	v[d-1] = int(tick / 3)
	return &Frame{Kind: KindSyn, From: 0, To: 1, Seq: tick, Vec: v}
}

func BenchmarkEncodeSynDelta(b *testing.B) {
	enc := NewEncoder(io.Discard, 16)
	enc.SetBatch(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(synFrame(16, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeSynSelfContained(b *testing.B) {
	enc := NewEncoder(io.Discard, 16)
	enc.SetBatch(true)
	enc.SelfContained = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(synFrame(16, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSyn(b *testing.B) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, 16)
	enc.SetBatch(true)
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(synFrame(16, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()), 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeZeroAlloc pins the steady-state encode path at zero heap
// allocations per frame: the payload buffer is recycled, the delta is
// computed inline against the pair baseline, and the baseline is updated in
// place. A regression here shows up as a nonzero count and fails `go test`,
// not just a benchmark number drifting.
func TestEncodeZeroAlloc(t *testing.T) {
	enc := NewEncoder(io.Discard, 16)
	enc.SetBatch(true)
	f := synFrame(16, 1)
	// Warm up: first encode of a pair allocates its baseline, and the
	// payload buffer grows to steady-state capacity.
	for i := 0; i < 8; i++ {
		f.Seq = uint64(i + 1)
		f.Vec[0] = int(i + 1)
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	tick := uint64(8)
	allocs := testing.AllocsPerRun(100, func() {
		tick++
		f.Seq = tick
		f.Vec[0] = int(tick)
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SYN encode allocates %.1f objects per frame, want 0", allocs)
	}
}

// TestDecodeAllocsPinned pins the steady-state decode path at its designed
// budget: one vector per SYN/ACK decoded into a reused Frame (DecodeInto,
// internal/node's read loops), plus the Frame itself through Decode. The
// baseline is a separate array updated in place, so delta decoding
// allocates no scratch.
func TestDecodeAllocsPinned(t *testing.T) {
	const frames = 256
	var buf bytes.Buffer
	enc := NewEncoder(&buf, 16)
	enc.SetBatch(true)
	for i := 0; i < frames; i++ {
		if err := enc.Encode(synFrame(16, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()), 16)
	// Warm up: baseline and payload buffer allocate on the first frames.
	for i := 0; i < 8; i++ {
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm SYN Decode allocates %.1f objects per frame, want <= 2 (Frame + vector)", allocs)
	}
	var f Frame
	allocs = testing.AllocsPerRun(100, func() {
		if err := dec.DecodeInto(&f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm SYN DecodeInto allocates %.1f objects per frame, want <= 1 (the vector)", allocs)
	}
}
