package node

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// The tests below pin the one-receive waits: a parked Send reads only its
// reply slot and a parked receive only its mailbox, so Stop, the timer and
// exclusion reach them there, and a post that finds the slot full is lost.
// make net-test runs them ten times under -race, then at GOMAXPROCS=1.

// runWithin runs n with programs and fails t if the run has not returned
// after limit. It then stops n, but does not wait for the run: a wait that
// missed Stop's post would hang the test instead of failing it.
func runWithin(t *testing.T, n *Node, limit time.Duration, programs map[int]func(*Process) error) (*RunInfo, error) {
	t.Helper()
	type result struct {
		info *RunInfo
		err  error
	}
	done := make(chan result, 1)
	go func() {
		info, err := n.Run(programs)
		done <- result{info, err}
	}()
	select {
	case r := <-done:
		return r.info, r.err
	case <-time.After(limit):
		n.Stop()
		t.Fatalf("run still parked after %v", limit)
		return nil, nil
	}
}

// staleAnswer is a late answer to a send its process abandoned, as the
// read loop can leave in a slot after that send gave up with ErrPeerLost.
func staleAnswer(dec *decomp.Decomposition) answer {
	stale := vector.New(dec.D())
	stale[0] = 99
	return answer{seq: 99, stamp: stale}
}

// TestWaitStopPastStaleAnswer parks process 0's remote Send inside its SYN
// write, which the fake peer starts reading and never finishes, fills the
// slot with a stale answer, and stops the node. Stop's answer finds the
// slot full and is lost, so the Send, once Stop's closed connection ends
// the write, must drop the stale answer and see the node stopped, not
// wait out its one-minute deadline.
func TestWaitStopPastStaleAnswer(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(2))
	placement := []int{0, 1}
	l := NewLoop(2)
	n, err := New(Config{Node: 0, Placement: placement, Dec: dec, RendezvousTimeout: time.Minute}, l.Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	writing := make(chan struct{})
	peerErr := make(chan error, 1)
	go func() {
		peerErr <- func() error {
			c, err := l.Transport(1).Dial(0, time.Now().Add(5*time.Second))
			if err != nil {
				return err
			}
			defer c.Close()
			enc := wire.NewEncoder(c, dec.D())
			if err := enc.Encode(&wire.Frame{Kind: wire.KindHello, Role: wire.RoleData, Node: 1, Procs: []int{1}, Digest: wire.Digest(dec, placement)}); err != nil {
				return err
			}
			// The HELLO reply is one write of its own, so the decoder reads no
			// byte of the SYN behind it.
			if _, err := wire.NewDecoder(c, dec.D()).Decode(); err != nil {
				return err
			}
			// One byte of the SYN: its write has begun and stays blocked.
			if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
				return err
			}
			close(writing)
			_, _ = io.Copy(io.Discard, c) // until Stop closes the connection
			return nil
		}()
	}()

	procs := make(chan *Process, 1)
	sendErr := make(chan error, 1)
	go func() {
		p := <-procs
		<-writing
		p.reply <- staleAnswer(dec)
		n.Stop()
	}()
	info, _ := runWithin(t, n, 10*time.Second, map[int]func(*Process) error{
		0: func(p *Process) error {
			procs <- p
			_, err := p.Send(1)
			sendErr <- err
			return err
		},
	})
	if err := <-sendErr; !errors.Is(err, ErrStopped) {
		t.Fatalf("Send returned %v, want ErrStopped", err)
	}
	if info.Dropped != 1 {
		t.Fatalf("info.Dropped = %d, want 1 (the stale answer)", info.Dropped)
	}
	if err := <-peerErr; err != nil {
		t.Fatalf("fake peer: %v", err)
	}
}

// TestWaitLostExpiryEndsSendAtDeadline holds process 0's local Send in
// its mailbox push, with the receiver's mailbox full and its own slot
// holding a stale answer, until the deadline's expiry has fired and been
// lost on the full slot. Only then is there room. The Send must drop the
// stale answer, find its deadline past, and fail the run: no further
// expiry is coming.
func TestWaitLostExpiryEndsSendAtDeadline(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(2))
	n, err := New(Config{Placement: []int{0, 0}, Dec: dec, RendezvousTimeout: 50 * time.Millisecond}, NewLoop(1).Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for len(n.mailboxes[1]) < cap(n.mailboxes[1]) {
		n.mailboxes[1] <- inbound{from: anySender} // process 1 runs no program
	}
	info, err := runWithin(t, n, 5*time.Second, map[int]func(*Process) error{
		0: func(p *Process) error {
			p.reply <- staleAnswer(dec)
			fired := make(chan struct{})
			p.timer = time.AfterFunc(time.Hour, func() {
				p.expire() // the slot is full: lost
				close(fired)
			})
			go func() {
				<-fired
				<-n.mailboxes[1] // room for the Send's request
			}()
			_, err := p.Send(1)
			return err
		},
	})
	if err == nil || !strings.Contains(err.Error(), "rendezvous deadline") {
		t.Fatalf("run returned %v, want a rendezvous deadline error", err)
	}
	if info.Dropped != 1 {
		t.Fatalf("info.Dropped = %d, want 1 (the stale answer)", info.Dropped)
	}
}

// TestWaitOneNodeRecvFromStopped: on a one-node node, Stop's wake-up is
// the only thing that reaches a RecvFrom parked on a sender that never
// sends, and a one-node node has no exclusion table to consult.
func TestWaitOneNodeRecvFromStopped(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(2))
	n, err := New(Config{Placement: []int{0, 0}, Dec: dec}, NewLoop(1).Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	go func() {
		time.Sleep(50 * time.Millisecond) // let the receiver park
		n.Stop()
	}()
	recvErr := make(chan error, 1)
	_, _ = runWithin(t, n, 5*time.Second, map[int]func(*Process) error{
		0: func(p *Process) error {
			_, err := p.RecvFrom(1) // process 1 runs no program
			recvErr <- err
			return err
		},
	})
	if err := <-recvErr; !errors.Is(err, ErrStopped) {
		t.Fatalf("parked RecvFrom returned %v, want ErrStopped", err)
	}
}

// TestWaitLocalSendDeadlineWithPeers: a send to a process on the same node
// of a two-node run is bounded by the rendezvous deadline too.
// TestRendezvousDeadline covers the remote path.
func TestWaitLocalSendDeadlineWithPeers(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(3))
	programs := map[int]func(*Process) error{
		0: func(p *Process) error {
			_, err := p.Send(1) // process 1, also on node 0, never receives
			return err
		},
	}
	_, results, _ := runCluster(dec, []int{0, 0, 1}, loopTransports(2), programs, Config{RendezvousTimeout: 100 * time.Millisecond})
	if err := results[0].err; err == nil || !strings.Contains(err.Error(), "rendezvous deadline") {
		t.Fatalf("sender's node returned %v, want a rendezvous deadline error", err)
	}
}

// TestWaitStaleExpiryNotDropped leaves an expiry in process 0's slot
// before its Send, as a timer armed for an earlier send can. The Send must
// neither act on it before its own deadline nor count it as a dropped
// frame.
func TestWaitStaleExpiryNotDropped(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(2))
	n, err := New(Config{Placement: []int{0, 0}, Dec: dec}, NewLoop(1).Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	info, err := runWithin(t, n, 5*time.Second, map[int]func(*Process) error{
		0: func(p *Process) error {
			p.expire()
			_, err := p.Send(1)
			return err
		},
		1: func(p *Process) error {
			_, err := p.RecvFrom(0)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Dropped != 0 {
		t.Fatalf("info.Dropped = %d, want 0: an expiry is not a frame", info.Dropped)
	}
}
