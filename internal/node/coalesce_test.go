package node

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// coalesceFamily is one topology family for the coalescing determinism
// matrix: a channel graph, a placement across nodes, a deterministic
// program set, and the message count one round produces.
type coalesceFamily struct {
	name      string
	g         *graph.Graph
	placement []int
	programs  func(rounds int) map[int]func(*Process) error
	perRound  int
}

func coalesceFamilies() []coalesceFamily {
	return []coalesceFamily{
		{
			// A 4-process chain over 3 nodes: each round sends a wave
			// forward 0→1→2→3 and reflects it back 3→2→1→0.
			name:      "path4",
			g:         graph.Path(4),
			placement: []int{0, 1, 1, 2},
			perRound:  6,
			programs: func(rounds int) map[int]func(*Process) error {
				return map[int]func(*Process) error{
					0: eachRound(rounds, func(p *Process) error {
						return chain(p, send(1), recv(1))
					}),
					1: eachRound(rounds, func(p *Process) error {
						return chain(p, recv(0), send(2), recv(2), send(0))
					}),
					2: eachRound(rounds, func(p *Process) error {
						return chain(p, recv(1), send(3), recv(3), send(1))
					}),
					3: eachRound(rounds, func(p *Process) error {
						return chain(p, recv(2), send(2))
					}),
				}
			},
		},
		{
			// A 5-process star over 3 nodes: the hub polls each leaf in
			// order, one request/reply pair per leaf per round.
			name:      "star5",
			g:         graph.Star(5, 0),
			placement: []int{0, 1, 2, 1, 2},
			perRound:  8,
			programs: func(rounds int) map[int]func(*Process) error {
				programs := map[int]func(*Process) error{
					0: eachRound(rounds, func(p *Process) error {
						for l := 1; l < 5; l++ {
							if err := chain(p, send(l), recv(l)); err != nil {
								return err
							}
						}
						return nil
					}),
				}
				for l := 1; l < 5; l++ {
					programs[l] = eachRound(rounds, func(p *Process) error {
						return chain(p, recv(0), send(0))
					})
				}
				return programs
			},
		},
		{
			// A 4-process complete graph over 2 nodes: every round walks
			// the six unordered pairs in lexicographic order; the lower
			// process sends and the higher replies.
			name:      "complete4",
			g:         graph.Complete(4),
			placement: []int{0, 1, 0, 1},
			perRound:  12,
			programs: func(rounds int) map[int]func(*Process) error {
				pairsOf := func(me int) [][2]int {
					var out [][2]int
					for lo := 0; lo < 4; lo++ {
						for hi := lo + 1; hi < 4; hi++ {
							if lo == me || hi == me {
								out = append(out, [2]int{lo, hi})
							}
						}
					}
					return out
				}
				programs := make(map[int]func(*Process) error, 4)
				for me := 0; me < 4; me++ {
					mine := pairsOf(me)
					programs[me] = eachRound(rounds, func(p *Process) error {
						for _, pr := range mine {
							var err error
							if pr[0] == p.ID() {
								err = chain(p, send(pr[1]), recv(pr[1]))
							} else {
								err = chain(p, recv(pr[0]), send(pr[0]))
							}
							if err != nil {
								return err
							}
						}
						return nil
					})
				}
				return programs
			},
		},
	}
}

// eachRound repeats a per-round body rounds times.
func eachRound(rounds int, body func(*Process) error) func(*Process) error {
	return func(p *Process) error {
		for r := 0; r < rounds; r++ {
			if err := body(p); err != nil {
				return err
			}
		}
		return nil
	}
}

// step is one rendezvous operation in a scripted round.
type step func(*Process) error

func send(q int) step {
	return func(p *Process) error { _, err := p.Send(q); return err }
}

func recv(q int) step {
	return func(p *Process) error { _, err := p.RecvFrom(q); return err }
}

// chain runs steps in order, stopping at the first error.
func chain(p *Process, steps ...step) error {
	for _, s := range steps {
		if err := s(p); err != nil {
			return err
		}
	}
	return nil
}

// TestCoalescingDeterminism runs each topology family through the
// coalescing writer and requires agreement with the sequential replay
// oracle. Batching frames into fewer transport writes must be invisible to
// the protocol: it may change *when* bytes move, never which stamps are
// agreed.
func TestCoalescingDeterminism(t *testing.T) {
	const rounds = 25
	for _, fam := range coalesceFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			leakCheck(t)
			dec := decomp.Best(fam.g)
			nodes := 0
			for _, n := range fam.placement {
				if n+1 > nodes {
					nodes = n + 1
				}
			}
			res, results, err := runCluster(dec, fam.placement, loopTransports(nodes),
				fam.programs(rounds), Config{})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.err != nil {
					t.Fatalf("node %d: %v", i, r.err)
				}
			}
			verifyAgainstSequential(t, res, dec, rounds*fam.perRound)
		})
	}
}

// TestCloseDeliversInheritedFlush pins the end of a run under flush-on-idle:
// a frame whose flush a later sender inherited reaches the peer even when
// the connection closes before that sender gets to flush.
func TestCloseDeliversInheritedFlush(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(2))
	n, err := New(Config{Node: 0, Placement: []int{0, 1}, Dec: dec}, NewLoop(2).Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	near, far := net.Pipe()
	defer far.Close()
	enc := wire.NewEncoder(near, dec.D())
	enc.SetBatch(true)
	pc := &peerConn{n: n, node: 1, c: near, enc: enc}

	// A later sender has committed to encoding and not finished, so the
	// ACK's flush is its responsibility.
	pc.pending.Add(1)
	if err := pc.send(&wire.Frame{Kind: wire.KindAck, From: 0, To: 1, Seq: 1, Vec: vector.New(dec.D())}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		f, err := wire.NewDecoder(far, dec.D()).Decode()
		if err == nil && f.Kind != wire.KindAck {
			err = fmt.Errorf("read %v, want ACK", f.Kind)
		}
		got <- err
	}()
	pc.close()
	if err := <-got; err != nil {
		t.Fatalf("peer did not receive the ACK: %v", err)
	}
}

// firstFrameConn delivers the first wire frame written to it and fails the
// rest, as a peer that closes its end right after reading one frame does.
type firstFrameConn struct {
	net.Conn  // unused: only Write is called
	delivered []byte
}

var errPeerClosed = errors.New("peer closed")

func (c *firstFrameConn) Write(b []byte) (int, error) {
	if c.delivered != nil {
		return 0, errPeerClosed
	}
	size, prefix := binary.Uvarint(b)
	n := prefix + int(size)
	c.delivered = append([]byte{}, b[:n]...)
	if n < len(b) {
		return n, errPeerClosed
	}
	return n, nil
}

// TestByeErrorCoversOnlyEarlierFrames pins what a BYE's send reports: the
// frames encoded up to the BYE, never a frame encoded after it. At
// GOMAXPROCS=1 a goroutine's ACK is encoded while the BYE's sender yields,
// which is when a flush-on-idle sender would hand its flush on; the conn
// delivers the BYE and fails the ACK. A BYE reported undelivered holds the
// end-of-run barrier open for a reconnect that never comes.
func TestByeErrorCoversOnlyEarlierFrames(t *testing.T) {
	leakCheck(t)
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	dec := decomp.Best(graph.Path(2))
	n, err := New(Config{Node: 0, Placement: []int{0, 1}, Dec: dec}, NewLoop(2).Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	conn := &firstFrameConn{}
	enc := wire.NewEncoder(conn, dec.D())
	enc.SetBatch(true)
	pc := &peerConn{n: n, node: 1, c: conn, enc: enc}

	acked := make(chan struct{})
	// A fresh time slice, so nothing preempts the BYE's sender before its
	// own yield; the ACK's sender is runnable from its go statement on, so
	// it runs at that yield.
	runtime.Gosched()
	go func() {
		defer close(acked)
		_ = pc.send(&wire.Frame{Kind: wire.KindAck, From: 0, To: 1, Seq: 1, Vec: vector.New(dec.D())})
	}()
	byeErr := pc.send(&wire.Frame{Kind: wire.KindBye})
	<-acked
	f, err := wire.NewDecoder(bytes.NewReader(conn.delivered), dec.D()).Decode()
	if err != nil || f.Kind != wire.KindBye {
		t.Fatalf("delivered frame %v (%v), want the BYE", f, err)
	}
	if byeErr != nil {
		t.Fatalf("the BYE was delivered, yet its send returned %v", byeErr)
	}
}

// countingTransport counts the Write calls on every stream it dials or
// accepts.
type countingTransport struct {
	Transport
	writes *atomic.Int64
}

func (t countingTransport) Dial(node int, deadline time.Time) (net.Conn, error) {
	c, err := t.Transport.Dial(node, deadline)
	if err != nil {
		return nil, err
	}
	return countingConn{c, t.writes}, nil
}

func (t countingTransport) Accept() (net.Conn, error) {
	c, err := t.Transport.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, t.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestTCPBatchesAtOneCPU pins the single-CPU scheduler trap of DESIGN §12
// where it shows: a TCP socket write never blocks, so at GOMAXPROCS=1 a
// flusher that did not yield would run its whole send before any other
// sender could encode, and every frame would get a write of its own. The
// Loop transport's pipe writes block and hide this. Sixteen concurrent
// pairs over one TCP stream must share writes.
func TestTCPBatchesAtOneCPU(t *testing.T) {
	leakCheck(t)
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	const pairs, rounds = 16, 100
	dec, placement := benchMatching(pairs)
	var writes atomic.Int64
	ts := tcpTransports(t, 2)
	for i := range ts {
		ts[i] = countingTransport{ts[i], &writes}
	}
	frames := 0
	for _, info := range runNodes(t, Config{Placement: placement, Dec: dec}, ts, benchPrograms(pairs, rounds)) {
		f, _ := info.Frames.Total()
		frames += f
	}
	perWrite := float64(frames) / float64(writes.Load())
	if perWrite <= 2 {
		t.Fatalf("%d frames in %d writes: %.2f frames per write at GOMAXPROCS=1, want more than 2", frames, writes.Load(), perWrite)
	}
	t.Logf("%d frames in %d writes: %.2f frames per write at GOMAXPROCS=1", frames, writes.Load(), perWrite)
}
