package csp

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/order"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

const testTimeout = 10 * time.Second

func TestPingPong(t *testing.T) {
	dec := decomp.Approximate(graph.Path(2))
	res, err := Run(dec, []func(*Process) error{
		func(p *Process) error {
			if _, err := p.Send(1, "ping"); err != nil {
				return err
			}
			msg, err := p.Recv()
			if err != nil {
				return err
			}
			if msg.Payload != "pong" {
				return fmt.Errorf("got %v", msg.Payload)
			}
			return nil
		},
		func(p *Process) error {
			msg, err := p.Recv()
			if err != nil {
				return err
			}
			if msg.Payload != "ping" {
				return fmt.Errorf("got %v", msg.Payload)
			}
			_, err = p.Send(0, "pong")
			return err
		},
	}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.NumMessages() != 2 {
		t.Fatalf("reconstructed %d messages, want 2", res.Trace.NumMessages())
	}
	// Path(2) is a single star: d = 1 and the two messages are ordered.
	if !vector.Eq(res.Stamps[0], vector.V{1}) || !vector.Eq(res.Stamps[1], vector.V{2}) {
		t.Fatalf("stamps = %v", res.Stamps)
	}
}

func TestSenderReceiverAgreeOnStamp(t *testing.T) {
	dec := decomp.Approximate(graph.Path(2))
	var sendStamp, recvStamp vector.V
	_, err := Run(dec, []func(*Process) error{
		func(p *Process) error {
			v, err := p.Send(1, nil)
			sendStamp = v
			return err
		},
		func(p *Process) error {
			msg, err := p.Recv()
			recvStamp = msg.Stamp
			return err
		},
	}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !vector.Eq(sendStamp, recvStamp) {
		t.Fatalf("sender stamp %v != receiver stamp %v", sendStamp, recvStamp)
	}
}

func TestSendErrors(t *testing.T) {
	dec := decomp.Approximate(graph.Path(2))
	_, err := Run(dec, []func(*Process) error{
		func(p *Process) error {
			if _, err := p.Send(0, nil); err == nil {
				return errors.New("self-send succeeded")
			}
			if _, err := p.Send(5, nil); err == nil {
				return errors.New("out-of-range send succeeded")
			}
			return nil
		},
		nil,
	}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUncoveredChannelFails(t *testing.T) {
	// Path(3) decomposition does not cover (0,2).
	dec := decomp.Approximate(graph.Path(3))
	_, err := Run(dec, []func(*Process) error{
		func(p *Process) error {
			_, err := p.Send(2, nil)
			return err
		},
		nil,
		func(p *Process) error {
			_, err := p.Recv()
			return err
		},
	}, testTimeout)
	if err == nil {
		t.Fatal("run with uncovered channel succeeded")
	}
}

func TestProgramErrorAbortsRun(t *testing.T) {
	dec := decomp.Approximate(graph.Path(2))
	boom := errors.New("boom")
	_, err := Run(dec, []func(*Process) error{
		func(p *Process) error { return boom },
		func(p *Process) error {
			_, err := p.Recv() // would block forever without the abort
			if !errors.Is(err, ErrStopped) {
				return fmt.Errorf("expected ErrStopped, got %v", err)
			}
			return nil
		},
	}, testTimeout)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestDeadlockTimesOut(t *testing.T) {
	dec := decomp.Approximate(graph.Path(2))
	start := time.Now()
	_, err := Run(dec, []func(*Process) error{
		func(p *Process) error {
			_, err := p.Send(1, nil)
			if errors.Is(err, ErrStopped) {
				return nil
			}
			return err
		},
		func(p *Process) error {
			_, err := p.Send(0, nil) // both send: classic rendezvous deadlock
			if errors.Is(err, ErrStopped) {
				return nil
			}
			return err
		},
	}, 200*time.Millisecond)
	if err == nil {
		t.Fatal("deadlocked run returned no error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not fire promptly")
	}
}

func TestWrongProgramCount(t *testing.T) {
	dec := decomp.Approximate(graph.Path(3))
	if _, err := Run(dec, make([]func(*Process) error, 2), testTimeout); err == nil {
		t.Fatal("accepted wrong program count")
	}
}

func TestRecvFromStashing(t *testing.T) {
	// P2 waits specifically for P1 while P0's message arrives first; P0's
	// envelope must be stashed and delivered by the later Recv.
	dec := decomp.Approximate(graph.Star(3, 2))
	res, err := Run(dec, []func(*Process) error{
		func(p *Process) error { // P0
			_, err := p.Send(2, "from0")
			return err
		},
		func(p *Process) error { // P1
			time.Sleep(50 * time.Millisecond) // let P0's send arrive first
			_, err := p.Send(2, "from1")
			return err
		},
		func(p *Process) error { // P2
			m1, err := p.RecvFrom(1)
			if err != nil {
				return err
			}
			if m1.From != 1 {
				return fmt.Errorf("RecvFrom(1) delivered from %d", m1.From)
			}
			m0, err := p.Recv()
			if err != nil {
				return err
			}
			if m0.From != 0 {
				return fmt.Errorf("stashed message from %d, want 0", m0.From)
			}
			return nil
		},
	}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	// P1's message was received first, so it must precede P0's in ↦ (both
	// share P2).
	p := order.MessagePoset(res.Trace)
	msgs := res.Trace.Messages()
	var idx1, idx0 = -1, -1
	for _, m := range msgs {
		if m.From == 1 {
			idx1 = m.Index
		}
		if m.From == 0 {
			idx0 = m.Index
		}
	}
	if !p.Less(idx1, idx0) {
		t.Fatal("stash order not reflected in the reconstructed poset")
	}
}

func TestInternalEventsResolved(t *testing.T) {
	dec := decomp.Approximate(graph.Path(2))
	res, err := Run(dec, []func(*Process) error{
		func(p *Process) error {
			p.Internal("before")
			if _, err := p.Send(1, nil); err != nil {
				return err
			}
			p.Internal("after")
			return nil
		},
		func(p *Process) error {
			_, err := p.Recv()
			return err
		},
	}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Internal) != 2 {
		t.Fatalf("got %d internal events, want 2", len(res.Internal))
	}
	var before, after *InternalEvent
	for i := range res.Internal {
		switch res.Internal[i].Note {
		case "before":
			before = &res.Internal[i]
		case "after":
			after = &res.Internal[i]
		}
	}
	if before == nil || after == nil {
		t.Fatal("notes lost")
	}
	if before.Stamp.Succ == nil || !vector.Eq(before.Stamp.Succ, res.Stamps[0]) {
		t.Fatalf("before.Succ = %v, want %v", before.Stamp.Succ, res.Stamps[0])
	}
	if after.Stamp.Succ != nil {
		t.Fatal("after the last message Succ must be inf")
	}
	if !before.Stamp.HappenedBefore(after.Stamp) {
		t.Fatal("before → after must hold")
	}
}

// TestReconstructInternalStampsMatchStampAll runs computations with an
// internal event on every process before its first message, internal events
// between messages, and one on every process after its last message: the
// reconstructed internal events must carry exactly core.StampAll's stamps
// over the reconstructed trace, each with its own process's note.
func TestReconstructInternalStampsMatchStampAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 15; round++ {
		g := graph.RandomConnected(2+rng.Intn(6), 0.5, rng)
		dec := decomp.Approximate(g)
		tr := &trace.Trace{N: g.N()}
		for p := 0; p < g.N(); p++ {
			tr.MustAppend(trace.Internal(p))
		}
		body := trace.Generate(g, trace.GenOptions{Messages: 1 + rng.Intn(40), InternalProb: 0.4}, rng)
		for _, op := range body.Ops {
			tr.MustAppend(op)
		}
		for p := 0; p < g.N(); p++ {
			tr.MustAppend(trace.Internal(p))
		}
		res, err := Run(dec, ReplayPrograms(tr), testTimeout)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		st, err := core.StampAll(res.Trace, dec)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(res.Internal) != tr.NumInternal() || len(st.Internal) != len(res.Internal) {
			t.Fatalf("round %d: run has %d internal events, StampAll %d, trace %d",
				round, len(res.Internal), len(st.Internal), tr.NumInternal())
		}
		for k, ev := range res.Internal {
			if !reflect.DeepEqual(ev.Stamp, st.Internal[k]) {
				t.Fatalf("round %d: internal event %d stamped %v, StampAll %v", round, k, ev.Stamp, st.Internal[k])
			}
			if want := fmt.Sprintf("replay-int-%d-", ev.Stamp.Proc); !strings.HasPrefix(fmt.Sprint(ev.Note), want) {
				t.Fatalf("round %d: internal event %d of P%d carries note %v", round, k, ev.Stamp.Proc, ev.Note)
			}
		}
	}
}

// TestE14ReplayMatchesSequential is the E14 integration test: replay random
// computations on the concurrent runtime and verify (1) the reconstructed
// computation is the same synchronous computation, and (2) the concurrent
// stamps equal the sequential stamper's on the reconstructed trace, and (3)
// Theorem 4 holds for the observed stamps against the oracle.
func TestE14ReplayMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 15; round++ {
		g := graph.RandomConnected(2+rng.Intn(6), 0.5, rng)
		dec := decomp.Approximate(g)
		tr := trace.Generate(g, trace.GenOptions{
			Messages:     1 + rng.Intn(40),
			InternalProb: 0.2,
		}, rng)
		res, err := Run(dec, ReplayPrograms(tr), testTimeout)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !SameProjections(tr, res.Trace) {
			t.Fatalf("round %d: reconstructed trace is a different computation", round)
		}
		if err := check.Verify(res, dec); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestClientServerConstantVectors(t *testing.T) {
	// Section 3.3's client-server claim: 2 servers, 6 clients, d = 2.
	const servers, clients = 2, 6
	g := graph.ClientServer(servers, clients, false)
	// Section 3.3 decomposes client-server topologies with one star rooted
	// at each server — the vertex-cover construction of Theorem 5.
	dec, err := decomp.FromVertexCover(g, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if dec.D() != servers {
		t.Fatalf("client-server d = %d, want %d", dec.D(), servers)
	}
	programs := make([]func(*Process) error, servers+clients)
	for s := 0; s < servers; s++ {
		programs[s] = func(p *Process) error {
			for i := 0; i < clients; i++ {
				req, err := p.Recv()
				if err != nil {
					return err
				}
				if _, err := p.Send(req.From, "reply"); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for c := 0; c < clients; c++ {
		programs[servers+c] = func(p *Process) error {
			for s := 0; s < servers; s++ {
				if _, err := p.Send(s, "request"); err != nil {
					return err
				}
				if _, err := p.RecvFrom(s); err != nil {
					return err
				}
			}
			return nil
		}
	}
	res, err2 := Run(dec, programs, testTimeout)
	err = err2
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * servers * clients
	if res.Trace.NumMessages() != want {
		t.Fatalf("got %d messages, want %d", res.Trace.NumMessages(), want)
	}
	for _, s := range res.Stamps {
		if len(s) != servers {
			t.Fatalf("stamp %v has %d components, want %d", s, len(s), servers)
		}
	}
	// Cross-check against the oracle.
	p := order.MessagePoset(res.Trace)
	for i := range res.Stamps {
		for j := range res.Stamps {
			if i != j && vector.Less(res.Stamps[i], res.Stamps[j]) != p.Less(i, j) {
				t.Fatalf("Theorem 4 violated for (%d,%d)", i, j)
			}
		}
	}
}

func TestStopIdempotent(t *testing.T) {
	sys := NewSystem(decomp.Approximate(graph.Path(2)))
	sys.Stop()
	sys.Stop() // must not panic
}
