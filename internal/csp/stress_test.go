package csp

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/order"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

// TestStressRing runs a token around a large ring many times; every message
// shares a process with its predecessor, so the computation is one long
// chain and every stamp must strictly increase.
func TestStressRing(t *testing.T) {
	const n, rounds = 16, 8
	g := graph.Cycle(n)
	dec := decomp.Best(g)
	programs := make([]func(*Process) error, n)
	for i := 0; i < n; i++ {
		programs[i] = func(p *Process) error {
			me := p.ID()
			next := (me + 1) % n
			prev := (me + n - 1) % n
			for r := 0; r < rounds; r++ {
				if me == 0 {
					if r == 0 {
						if _, err := p.Send(next, r); err != nil {
							return err
						}
					}
					if _, err := p.RecvFrom(prev); err != nil {
						return err
					}
					if r+1 < rounds {
						if _, err := p.Send(next, r+1); err != nil {
							return err
						}
					}
				} else {
					if _, err := p.RecvFrom(prev); err != nil {
						return err
					}
					if _, err := p.Send(next, r); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	res, err := Run(dec, programs, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := n * rounds
	if res.Trace.NumMessages() != want {
		t.Fatalf("messages = %d, want %d", res.Trace.NumMessages(), want)
	}
	// A ring token is a total order: stamps must form a chain.
	for i := 1; i < len(res.Stamps); i++ {
		if !vector.Less(res.Stamps[i-1], res.Stamps[i]) {
			t.Fatalf("token chain broken at %d: %v vs %v", i, res.Stamps[i-1], res.Stamps[i])
		}
	}
}

// TestStressManyReplays replays many random computations concurrently sized
// to exercise the scheduler (run under -race in CI).
func TestStressManyReplays(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for round := 0; round < 8; round++ {
		g := graph.RandomConnected(4+rng.Intn(8), 0.4, rng)
		dec := decomp.Best(g)
		tr := trace.Generate(g, trace.GenOptions{Messages: 150, InternalProb: 0.1, Hotspot: 0.5}, rng)
		res, err := Run(dec, ReplayPrograms(tr), 60*time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !SameProjections(tr, res.Trace) {
			t.Fatalf("round %d: different computation reconstructed", round)
		}
		if err := check.Verify(res, dec); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestFailureMidRun injects a failure after some messages; the system must
// abort promptly and report the failing process, and survivors must see
// ErrStopped rather than hanging.
func TestFailureMidRun(t *testing.T) {
	g := graph.Star(4, 0)
	dec := decomp.Best(g)
	boom := errors.New("injected fault")
	programs := []func(*Process) error{
		func(p *Process) error { // hub
			for i := 0; i < 3; i++ {
				if _, err := p.Recv(); err != nil {
					if errors.Is(err, ErrStopped) {
						return nil
					}
					return err
				}
			}
			return nil
		},
		func(p *Process) error {
			_, err := p.Send(0, "ok")
			return err
		},
		func(p *Process) error {
			if _, err := p.Send(0, "ok"); err != nil {
				return err
			}
			return boom
		},
		func(p *Process) error {
			// Deliberately slower so the fault lands first sometimes.
			time.Sleep(10 * time.Millisecond)
			_, err := p.Send(0, "ok")
			if errors.Is(err, ErrStopped) {
				return nil
			}
			return err
		},
	}
	_, err := Run(dec, programs, 10*time.Second)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if !strings.Contains(err.Error(), "process 2") {
		t.Fatalf("error does not identify the failing process: %q", err)
	}
}

// TestStashHeavyFanIn floods one receiver from many senders while it waits
// for a specific late sender; all other envelopes must stash and drain.
func TestStashHeavyFanIn(t *testing.T) {
	const senders = 10
	g := graph.Star(senders+1, senders) // hub is the last process
	dec := decomp.Best(g)
	programs := make([]func(*Process) error, senders+1)
	for i := 0; i < senders; i++ {
		i := i
		programs[i] = func(p *Process) error {
			if i == 0 {
				time.Sleep(30 * time.Millisecond) // the awaited sender is slowest
			}
			_, err := p.Send(senders, i)
			return err
		}
	}
	programs[senders] = func(p *Process) error {
		if _, err := p.RecvFrom(0); err != nil { // forces stashing of others
			return err
		}
		for i := 1; i < senders; i++ {
			if _, err := p.Recv(); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := Run(dec, programs, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.NumMessages() != senders {
		t.Fatalf("messages = %d, want %d", res.Trace.NumMessages(), senders)
	}
	// Star topology: total order (Lemma 1), and the awaited sender's
	// message must be first.
	p := order.MessagePoset(res.Trace)
	for i := 0; i < p.N(); i++ {
		for j := i + 1; j < p.N(); j++ {
			if p.Concurrent(i, j) {
				t.Fatal("star computation not totally ordered")
			}
		}
	}
	first := res.Trace.Messages()[0]
	if first.From != 0 {
		t.Fatalf("first received message from %d, want 0", first.From)
	}
}
