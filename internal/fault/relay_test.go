package fault

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"syncstamp/internal/node"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// relayedVec is the vector the test writes on its one process pair in
// frame seq: every component moves, at different rates, so a frame
// decoded against the wrong baseline reads a different vector.
func relayedVec(d int, seq uint64) vector.V {
	v := vector.New(d)
	for k := range v {
		v[k] = int(seq) / (k + 1)
	}
	return v
}

// jitterTransport delays every write on the connections it dials by a few
// microseconds, varying from write to write, so that two writes racing for
// one connection reach it in either order.
type jitterTransport struct{ Inner }

func (t jitterTransport) Dial(node int, deadline time.Time) (net.Conn, error) {
	c, err := t.Inner.Dial(node, deadline)
	if err != nil {
		return nil, err
	}
	return &jitterConn{Conn: c}, nil
}

type jitterConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *jitterConn) Write(p []byte) (int, error) {
	time.Sleep(time.Duration(c.writes.Add(1)%5) * 20 * time.Microsecond)
	return c.Conn.Write(p)
}

// TestRelayFlushRacesWriter releases held frames through the idle reorder
// flush while a sender writes on the same connection. The flush re-encodes
// its frame against the peer's baselines, so it must encode and write under
// the connection's write lock, as Write does: a frame encoded before a
// concurrent writer's but written after it would reach the peer behind a
// delta computed against it. SYNs and ACKs share the one process pair, and
// every frame the peer decodes must carry the vector written for it.
func TestRelayFlushRacesWriter(t *testing.T) {
	const d, frames = 3, 300
	l := node.NewLoop(2)
	plan := &Plan{Seed: 1, Links: []LinkFault{{From: 0, To: 1, Reorder: 0.5}}}
	ft := New(jitterTransport{l.Transport(0)}, plan, 0)

	read := make(chan error, 1)
	go func() {
		read <- func() error {
			c, err := l.Transport(1).Accept()
			if err != nil {
				return err
			}
			defer c.Close()
			dec := wire.NewDecoder(c, d)
			seen := make(map[uint64]bool, frames)
			for len(seen) < frames {
				f, err := dec.Decode()
				if err != nil {
					return fmt.Errorf("after %d frames: %w", len(seen), err)
				}
				if f.Kind == wire.KindHello {
					continue
				}
				if want := relayedVec(d, f.Seq); !vector.Eq(f.Vec, want) {
					return fmt.Errorf("%v seq %d decoded to %v, written as %v", f.Kind, f.Seq, f.Vec, want)
				}
				if seen[f.Seq] {
					return fmt.Errorf("%v seq %d delivered twice", f.Kind, f.Seq)
				}
				seen[f.Seq] = true
			}
			return nil
		}()
	}()

	c, err := ft.Dial(1, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc := c.(*faultConn)
	enc := wire.NewEncoder(c, d)
	if err := enc.Encode(&wire.Frame{Kind: wire.KindHello, Role: wire.RoleData, Node: 0, Procs: []int{0}}); err != nil {
		t.Fatal(err)
	}
	lk := ft.link(1)
	for seq := uint64(1); seq <= frames; seq++ {
		kind := wire.KindSyn
		if seq%2 == 0 {
			kind = wire.KindAck
		}
		// The flush the idle timer would run, racing this frame's write.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			fc.flushHeld(lk)
		}()
		err := enc.Encode(&wire.Frame{Kind: kind, From: 0, To: 1, Seq: seq, Vec: relayedVec(d, seq)})
		wg.Wait()
		if err != nil {
			_ = c.Close() // ends the reader, if it still reads
			t.Fatalf("writing seq %d: %v (reader: %v)", seq, err, <-read)
		}
	}
	fc.flushHeld(lk) // the last frame may still be held
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if ft.Stats().Reordered == 0 {
		t.Fatal("the plan reordered no frame; the flush had nothing to release")
	}
}
