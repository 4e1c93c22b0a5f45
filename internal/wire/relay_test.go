package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"syncstamp/internal/vector"
)

// relayStream writes n random SYN and ACK frames with a real Encoder over
// a few process pairs, the first of which carries both kinds, so SYNs and
// ACKs share its baseline. The pairs include ones a wrong baseline key
// would merge: (1,2) against (2,1), and (0, 1<<31) against (1<<31, 0).
// Each vector moves by one component (a delta) or by all of them (dense),
// and one frame in five is forced dense. Every frame goes through a Relay,
// which passes it, drops it, duplicates it, or holds it and releases it
// after later frames; every frame the reader's Decoder reads must carry
// exactly the header and vector written.
func relayStream(seed int64, n int) error {
	rng := rand.New(rand.NewSource(seed))
	d := 1 + rng.Intn(6)
	pairs := []struct {
		kind     Kind
		from, to int
	}{{KindSyn, 0, 1}, {KindAck, 0, 1}, {KindAck, 1, 0}, {KindSyn, 2, 0},
		{KindSyn, 1, 2}, {KindAck, 2, 1}, {KindSyn, 0, 1 << 31}, {KindAck, 1 << 31, 0}}
	clocks := map[[2]int]vector.V{}
	var wrote, delivered bytes.Buffer
	enc := NewEncoder(&wrote, d)
	dec := NewDecoder(&delivered, d)
	relay := NewRelay()
	var f Frame
	var held []Frame
	written := map[uint64]Frame{} // by Seq, unique per frame
	var want []uint64             // the Seqs delivered since the last read
	emit := func(fr *Frame) {
		delivered.Write(relay.Emit(nil, fr))
		want = append(want, fr.Seq)
	}
	for i := 0; i < n; i++ {
		p := pairs[rng.Intn(len(pairs))]
		v, ok := clocks[[2]int{p.from, p.to}]
		if !ok {
			v = vector.New(d)
			clocks[[2]int{p.from, p.to}] = v
		}
		if rng.Intn(4) == 0 {
			for k := range v {
				v[k] += 1 + rng.Intn(200)
			}
		} else {
			v[rng.Intn(d)] += 1 + rng.Intn(3)
		}
		enc.SelfContained = rng.Intn(5) == 0
		wrote.Reset()
		fr := Frame{Kind: p.kind, From: p.from, To: p.to, Seq: uint64(i + 1), Vec: v.Clone()}
		written[fr.Seq] = fr
		if err := enc.Encode(&fr); err != nil {
			return err
		}
		if err := relay.Parse(wrote.Bytes(), &f); err != nil {
			return fmt.Errorf("frame %d: %w", i+1, err)
		}
		switch rng.Intn(5) {
		case 0: // dropped
		case 1:
			emit(&f)
			emit(&f)
		case 2:
			held = append(held, Frame{Kind: f.Kind, From: f.From, To: f.To, Seq: f.Seq, Vec: f.Vec.Clone()})
		default:
			emit(&f)
		}
		for len(held) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(held))
			emit(&held[k])
			held = append(held[:k], held[k+1:]...)
		}
		for _, seq := range want {
			w := written[seq]
			got, err := dec.Decode()
			if err != nil {
				return fmt.Errorf("after frame %d: %w", i+1, err)
			}
			if got.Kind != w.Kind || got.From != w.From || got.To != w.To || got.Seq != w.Seq || !vector.Eq(got.Vec, w.Vec) {
				return fmt.Errorf("after frame %d: read %v %d->%d seq %d %v, want %v %d->%d seq %d %v",
					i+1, got.Kind, got.From, got.To, got.Seq, got.Vec, w.Kind, w.From, w.To, w.Seq, w.Vec)
			}
		}
		want = want[:0]
	}
	return nil
}

// TestRelayDeliversWrittenVectors runs relayStream over many seeds: however
// a link drops, duplicates and reorders frames, the reader decodes every
// frame it gets to the vector its writer encoded.
func TestRelayDeliversWrittenVectors(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		if err := relayStream(seed, 80); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzRelay fuzzes relayStream's seed and length, starting from seeds of
// TestRelayDeliversWrittenVectors.
func FuzzRelay(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 300} {
		f.Add(seed, uint8(80))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		if err := relayStream(seed, int(n)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRelayWarmPathAllocs pins a warm Parse and Emit at zero allocations:
// the fault injector relays every SYN and ACK of a faulty link through them.
func TestRelayWarmPathAllocs(t *testing.T) {
	const d = 16
	frames := make([]*Frame, 64)
	for i := range frames {
		frames[i] = synFrame(d, uint64(i+1))
	}
	var wrote bytes.Buffer
	enc := NewEncoder(&wrote, d)
	relay := NewRelay()
	var f Frame
	var out []byte
	next := 0
	step := func() {
		wrote.Reset()
		if err := enc.Encode(frames[next%len(frames)]); err != nil {
			t.Fatal(err)
		}
		next++
		if err := relay.Parse(wrote.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		out = relay.Emit(out[:0], &f)
	}
	for range frames {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("warm relay allocates %.1f objects per frame, want 0", allocs)
	}
}
