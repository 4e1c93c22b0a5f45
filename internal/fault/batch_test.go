package fault_test

import (
	"testing"
	"time"

	"syncstamp/internal/fault"
	"syncstamp/internal/node"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// TestBatchedWriteDropsSingleFrame pins the injector's per-frame semantics
// under the coalescing writer: one transport Write carries three SYN frames
// back to back, and the plan drops link frame index 1. The injector must
// split the batch, drop exactly the middle SYN, and deliver the other two
// intact — fates attach to frames, never to writes.
func TestBatchedWriteDropsSingleFrame(t *testing.T) {
	const d = 2
	l := node.NewLoop(2)
	plan := &fault.Plan{
		Seed:  1,
		Links: []fault.LinkFault{{From: 0, To: 1, DropFrames: []int{1}}},
	}
	ft := fault.New(l.Transport(0), plan, 0)

	type got struct {
		frames []*wire.Frame
		err    error
	}
	done := make(chan got, 1)
	go func() {
		c, err := l.Transport(1).Accept()
		if err != nil {
			done <- got{err: err}
			return
		}
		defer c.Close()
		dec := wire.NewDecoder(c, d)
		var frames []*wire.Frame
		for {
			f, err := dec.Decode()
			if err != nil {
				done <- got{frames: frames, err: err}
				return
			}
			frames = append(frames, f)
			if f.Kind == wire.KindBye {
				done <- got{frames: frames}
				return
			}
		}
	}()

	c, err := ft.Dial(1, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	enc := wire.NewEncoder(c, d)
	enc.SetBatch(true)

	// The HELLO flushes alone: it binds the connection's role so the SYNs
	// behind it are injectable.
	if err := enc.Encode(&wire.Frame{Kind: wire.KindHello, Role: wire.RoleData, Node: 0, Procs: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	// Three SYNs coalesce into one Write — link frame indices 0, 1, 2.
	for seq := uint64(1); seq <= 3; seq++ {
		v := vector.New(d)
		v[0] = int(seq)
		if err := enc.Encode(&wire.Frame{Kind: wire.KindSyn, From: 0, To: 1, Seq: seq, Vec: v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&wire.Frame{Kind: wire.KindBye}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("far side: %v (frames so far: %d)", res.err, len(res.frames))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var seqs []uint64
	for _, f := range res.frames {
		if f.Kind == wire.KindSyn {
			seqs = append(seqs, f.Seq)
			// SYN 3 travelled as a delta against SYN 2, which the far side
			// never saw; the injector's relay must re-encode it.
			if f.Vec[0] != int(f.Seq) {
				t.Errorf("SYN %d carried %v, want component 0 = %d", f.Seq, f.Vec, f.Seq)
			}
		}
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 3 {
		t.Fatalf("far side saw SYN seqs %v, want [1 3] (middle frame of the batch dropped)", seqs)
	}
	if got := ft.Stats().Dropped; got != 1 {
		t.Fatalf("Stats().Dropped = %d, want 1", got)
	}
}
