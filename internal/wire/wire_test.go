package wire

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

// pipeRoundTrip encodes the frames into a buffer and decodes them back with
// a fresh Decoder sharing only the dimension.
func pipeRoundTrip(t *testing.T, d int, frames []*Frame) []*Frame {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, d)
	for i, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatalf("encode frame %d (%v): %v", i, f.Kind, err)
		}
	}
	dec := NewDecoder(&buf, d)
	var out []*Frame
	for {
		f, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode frame %d: %v", len(out), err)
		}
		out = append(out, f)
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Kind: KindHello, Role: RoleData, Node: 2, Procs: []int{3, 4, 5}, Digest: 0xdeadbeefcafe, Epoch: 3},
		{Kind: KindSyn, From: 3, To: 0, Seq: 1, Vec: vector.V{1, 0, 2}},
		{Kind: KindAck, From: 0, To: 3, Seq: 1, Vec: vector.V{1, 1, 2}},
		{Kind: KindSyn, From: 3, To: 0, Seq: 2, Vec: vector.V{1, 1, 3}},
		{Kind: KindInternal, Proc: 4, Note: "checkpoint #7"},
		{Kind: KindInternal, Proc: 5, Note: ""},
		{Kind: KindBye},
	}
	got := pipeRoundTrip(t, 3, frames)
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		want := *frames[i]
		if want.Kind == KindHello && want.Procs == nil {
			want.Procs = []int{}
		}
		if !reflect.DeepEqual(&want, got[i]) {
			t.Errorf("frame %d: got %+v, want %+v", i, got[i], &want)
		}
	}
}

// TestDecodeIntoLeavesNoStaleFields decodes frames of every shape into one
// reused Frame: each result must equal a fresh Decode of the same bytes,
// so no field of an earlier frame survives into a later one.
func TestDecodeIntoLeavesNoStaleFields(t *testing.T) {
	frames := []*Frame{
		{Kind: KindHello, Role: RoleData, Node: 2, Procs: []int{3, 4}, Digest: 0xfeed, Epoch: 1},
		{Kind: KindMetrics, Metrics: []byte(`{"counters":{"c":7},"gauges":{},"histograms":{}}`)},
		{Kind: KindInternal, Proc: 4, Note: "checkpoint"},
		{Kind: KindSyn, From: 3, To: 0, Seq: 9, Vec: vector.V{1, 0, 2}},
		{Kind: KindBye},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, 3)
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	fresh := NewDecoder(bytes.NewReader(stream), 3)
	reused := NewDecoder(bytes.NewReader(stream), 3)
	var f Frame
	for i := range frames {
		want, err := fresh.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if err := reused.DecodeInto(&f); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&f, want) {
			t.Fatalf("frame %d (%v) decoded into a reused Frame: got %+v, want %+v", i, want.Kind, f, *want)
		}
	}
}

// TestDeltaBeatsDenseOnRepeatTraffic drives repeated same-pair exchanges —
// the differential codec's favorable regime — and requires actual wire
// bytes strictly below the dense cost, while round-tripping exactly.
func TestDeltaBeatsDenseOnRepeatTraffic(t *testing.T) {
	const d = 16
	var buf bytes.Buffer
	enc := NewEncoder(&buf, d)
	v := vector.New(d)
	var sent []vector.V
	for i := 0; i < 50; i++ {
		v[3]++ // one component advances per exchange, as under Figure 5
		sent = append(sent, v.Clone())
		if err := enc.Encode(&Frame{Kind: KindSyn, From: 1, To: 2, Vec: v.Clone()}); err != nil {
			t.Fatal(err)
		}
	}
	if enc.Overhead.WireBytes >= enc.Overhead.DenseBytes {
		t.Fatalf("delta encoding saved nothing: wire %d, dense %d", enc.Overhead.WireBytes, enc.Overhead.DenseBytes)
	}
	dec := NewDecoder(&buf, d)
	for i, want := range sent {
		f, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !vector.Eq(f.Vec, want) {
			t.Fatalf("frame %d decoded vector %v, want %v", i, f.Vec, want)
		}
	}
}

// TestBaselinesArePerPair interleaves ordered pairs on one stream and
// checks none corrupts another's delta baseline: every frame must encode to
// the bytes it gets on a stream carrying its pair alone, and decode to its
// vector. The pairs include the ones a wrong baseline key would merge —
// (1,2) against (2,1), and (0, 1<<31) against (1<<31, 0), 1<<31 being the
// largest process id a frame may carry — with vectors chosen so a shared
// baseline changes the encoding.
func TestBaselinesArePerPair(t *testing.T) {
	const d = 4
	type step struct {
		from, to int
		vec      vector.V
	}
	steps := []step{
		{1, 2, vector.V{1, 0, 0, 0}},
		{3, 2, vector.V{0, 0, 0, 7}},
		{2, 1, vector.V{1, 0, 0, 0}},
		{1, 2, vector.V{2, 0, 0, 0}},
		{3, 2, vector.V{0, 0, 0, 9}},
		{2, 1, vector.V{2, 1, 0, 0}},
		{0, 1 << 31, vector.V{5, 5, 5, 0}},
		{1 << 31, 0, vector.V{5, 5, 5, 0}},
		{0, 1 << 31, vector.V{5, 5, 6, 0}},
		{1 << 31, 0, vector.V{5, 6, 5, 0}},
		{1, 2, vector.V{2, 1, 0, 0}},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, d)
	alone := map[[2]int]*Encoder{}
	var aloneBuf bytes.Buffer
	for i, s := range steps {
		before := buf.Len()
		if err := enc.Encode(&Frame{Kind: KindSyn, From: s.from, To: s.to, Vec: s.vec.Clone()}); err != nil {
			t.Fatal(err)
		}
		k := [2]int{s.from, s.to}
		if alone[k] == nil {
			alone[k] = NewEncoder(&aloneBuf, d)
		}
		aloneBuf.Reset()
		if err := alone[k].Encode(&Frame{Kind: KindSyn, From: s.from, To: s.to, Vec: s.vec.Clone()}); err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes()[before:]; !bytes.Equal(got, aloneBuf.Bytes()) {
			t.Fatalf("frame %d (%d->%d): encoded % x on the shared stream, % x alone", i, s.from, s.to, got, aloneBuf.Bytes())
		}
	}
	dec := NewDecoder(&buf, d)
	for i, s := range steps {
		f, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if f.From != s.from || f.To != s.to || !vector.Eq(f.Vec, s.vec) {
			t.Fatalf("frame %d: got (%d->%d) %v, want (%d->%d) %v", i, f.From, f.To, f.Vec, s.from, s.to, s.vec)
		}
	}
}

// TestSelfContainedFramesDecodeInIsolation drives repeated same-pair traffic
// through a SelfContained encoder and decodes each frame with a FRESH decoder
// (zero baselines): every frame must decode to its full vector on its own.
// This is the property SelfContained promises — a retransmitted, duplicated,
// or reordered frame must not need any earlier frame to be interpretable.
func TestSelfContainedFramesDecodeInIsolation(t *testing.T) {
	const d = 8
	v := vector.New(d)
	for i := 0; i < 20; i++ {
		v[2]++
		var buf bytes.Buffer
		enc := NewEncoder(&buf, d)
		enc.SelfContained = true
		want := v.Clone()
		if err := enc.Encode(&Frame{Kind: KindSyn, From: 1, To: 2, Seq: uint64(i + 1), Vec: want}); err != nil {
			t.Fatal(err)
		}
		if enc.Overhead.WireBytes != enc.Overhead.DenseBytes {
			t.Fatalf("self-contained encoding charged wire %d != dense %d", enc.Overhead.WireBytes, enc.Overhead.DenseBytes)
		}
		f, err := NewDecoder(&buf, d).Decode()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !vector.Eq(f.Vec, want) || f.Seq != uint64(i+1) {
			t.Fatalf("frame %d decoded (seq %d) %v, want (seq %d) %v", i, f.Seq, f.Vec, i+1, want)
		}
	}
}

func TestEncodeRejectsWrongDimension(t *testing.T) {
	enc := NewEncoder(io.Discard, 3)
	if err := enc.Encode(&Frame{Kind: KindSyn, From: 0, To: 1, Vec: vector.V{1, 2}}); err == nil {
		t.Fatal("encoder accepted a vector of the wrong dimension")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{0x01, 0xff},             // unknown kind
		{0x05, 0x02, 0x00, 0x00}, // SYN truncated before vector
		{0x00},                   // zero-length frame
		{0x03, 0x02, 0x00, 0x00}, // SYN with trailing bytes missing vec mode
		{0x08, 0x02, 0x00, 0x01, 0x01, 0x00, 0x01, 0x00, 0x05}, // whole SYN plus one trailing byte
	}
	for i, c := range cases {
		dec := NewDecoder(bytes.NewReader(c), 2)
		if _, err := dec.Decode(); err == nil {
			t.Errorf("case %d: garbage %v accepted", i, c)
		}
	}
}

// TestDecodeBoundsAllocation feeds frames of a few bytes whose list counts
// claim far more entries than the payload holds. Each must fail, and must
// fail before the decoder allocates for the claimed count: every entry
// takes at least one byte, so a count beyond the bytes left is refused.
// Kind byte 7 was the collector tree's SUMMARY, whose group count once
// cost about 50 MB before failing; it is no frame kind now.
func TestDecodeBoundsAllocation(t *testing.T) {
	frame := func(payload ...byte) []byte {
		return append(appendUvarint(nil, uint64(len(payload))), payload...)
	}
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"HELLO claiming MaxProcs processes",
			frame(appendUvarint([]byte{byte(KindHello), RoleData, 0, 0, 0}, MaxProcs)...), "proc count"},
		{"kind 7 claiming 1<<20 groups",
			frame(appendUvarint([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0}, 1<<20)...), "unknown frame kind"},
	}
	const runs = 10
	for _, c := range cases {
		decs := make([]*Decoder, runs)
		for i := range decs {
			decs[i] = NewDecoder(bytes.NewReader(c.in), 3)
		}
		errs := make([]error, runs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, dec := range decs {
			_, errs[i] = dec.Decode()
		}
		runtime.ReadMemStats(&after)
		for _, err := range errs {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s (%d bytes): err = %v, want one naming %q", c.name, len(c.in), err, c.want)
				break
			}
		}
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
			t.Errorf("%s (%d bytes): Decode allocated %d B before failing, want < 4 KiB", c.name, len(c.in), per)
		}
	}
}

func TestDecodeTruncatedMidFrame(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, 2)
	if err := enc.Encode(&Frame{Kind: KindSyn, From: 0, To: 1, Vec: vector.V{5, 6}}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	dec := NewDecoder(bytes.NewReader(whole[:len(whole)-1]), 2)
	if _, err := dec.Decode(); err == nil || err == io.EOF {
		t.Fatalf("truncated frame decoded with err=%v", err)
	}
}

func TestDigestDetectsMismatch(t *testing.T) {
	g := graph.Complete(5)
	d1 := decomp.Best(g)
	d2 := decomp.TrivialStars(g)
	place := []int{0, 1, 2, 0, 1}
	if Digest(d1, place) == Digest(d2, place) {
		t.Fatal("different decompositions share a digest")
	}
	if Digest(d1, place) != Digest(d1, append([]int(nil), place...)) {
		t.Fatal("digest is not deterministic")
	}
	if Digest(d1, place) == Digest(d1, []int{0, 1, 2, 0, 2}) {
		t.Fatal("different placements share a digest")
	}
}

// TestCountTraceMatchesLiveEncoding encodes the same rendezvous sequence by
// hand and checks CountTrace charges exactly those bytes.
func TestCountTraceMatchesLiveEncoding(t *testing.T) {
	g := graph.ClientServer(2, 6, false)
	dec := decomp.Best(g)
	rng := rand.New(rand.NewSource(42))
	tr := trace.Generate(g, trace.GenOptions{Messages: 120, Hotspot: 0.5}, rng)

	got, err := CountTrace(tr, dec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Frames != 2*tr.NumMessages() {
		t.Fatalf("charged %d frames for %d messages", got.Frames, tr.NumMessages())
	}
	if got.WireBytes <= 0 || got.DenseBytes < got.WireBytes {
		t.Fatalf("implausible accounting %+v", got)
	}
	// Determinism: same trace, same bytes.
	again, err := CountTrace(tr, dec)
	if err != nil {
		t.Fatal(err)
	}
	if got != again {
		t.Fatalf("CountTrace not deterministic: %+v vs %+v", got, again)
	}
}

func TestCountTraceRejectsUncoveredChannel(t *testing.T) {
	g := graph.Path(3)
	dec := decomp.Best(g)
	tr := &trace.Trace{N: 3}
	tr.MustAppend(trace.Message(0, 2)) // not an edge of the path
	if _, err := CountTrace(tr, dec); err == nil {
		t.Fatal("uncovered channel accepted")
	}
}
