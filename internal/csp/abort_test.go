package csp

import (
	"errors"
	"testing"
	"time"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
)

// TestStopUnblocksRecv: a process parked in Recv with no sender must come
// back with ErrStopped once the system is aborted, not hang.
func TestStopUnblocksRecv(t *testing.T) {
	sys := NewSystem(decomp.Approximate(graph.Path(2)))
	got := make(chan error, 1)
	err := sys.Start([]func(*Process) error{
		func(p *Process) error {
			_, err := p.Recv()
			got <- err
			return err
		},
		nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the receiver park
	sys.Stop()
	select {
	case err := <-got:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("parked Recv returned %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not unblock the parked Recv")
	}
	if _, err := sys.Wait(5 * time.Second); err == nil {
		t.Fatal("aborted run reported success")
	}
}

// TestOpsAfterStop: every blocking primitive must fail fast with ErrStopped
// on an already-aborted system instead of parking forever.
func TestOpsAfterStop(t *testing.T) {
	sys := NewSystem(decomp.Approximate(graph.Complete(3)))
	ops := make(chan error, 3)
	stopped := make(chan struct{}) // closed once sys.Stop has returned
	err := sys.Start([]func(*Process) error{
		func(p *Process) error {
			<-stopped
			_, err := p.Send(1, nil)
			ops <- err
			return err
		},
		func(p *Process) error {
			<-stopped
			_, err := p.Recv()
			ops <- err
			return err
		},
		func(p *Process) error {
			<-stopped
			_, err := p.RecvFrom(0)
			ops <- err
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Stop()
	close(stopped)
	for i := 0; i < 3; i++ {
		select {
		case err := <-ops:
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("op %d after Stop returned %v, want ErrStopped", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("op %d still blocked after Stop", i)
		}
	}
	if _, err := sys.Wait(5 * time.Second); !errors.Is(err, ErrStopped) {
		t.Fatalf("Wait after abort returned %v, want an ErrStopped-rooted error", err)
	}
}

// TestWaitDeadlineStopsParkedSend: an expiring Wait must stop the system so
// that a sender with no matching receiver is released with ErrStopped, and
// Wait itself must report the deadline.
func TestWaitDeadlineStopsParkedSend(t *testing.T) {
	sys := NewSystem(decomp.Approximate(graph.Path(2)))
	got := make(chan error, 1)
	err := sys.Start([]func(*Process) error{
		func(p *Process) error {
			_, err := p.Send(1, "never delivered")
			got <- err
			if errors.Is(err, ErrStopped) {
				return nil // deadline abort, not a program bug
			}
			return err
		},
		nil, // the would-be receiver never runs
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := sys.Wait(100 * time.Millisecond); err == nil {
		t.Fatal("Wait returned success with a parked sender")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline did not fire promptly")
	}
	select {
	case err := <-got:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("parked Send returned %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Send never released after deadline")
	}
}

// TestRunAfterDrainRejectsJoin: once a run has drained, Join must refuse.
func TestRunAfterDrainRejectsJoin(t *testing.T) {
	dec := decomp.Approximate(graph.Path(2))
	sys := NewSystemCap(dec, 3)
	if err := sys.Start([]func(*Process) error{nil, nil}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	root := dec.Groups()[0].Root
	grown, _, err := dec.GrowStarVertex([]int{root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Join(grown, func(p *Process) error { return nil }); err == nil {
		t.Fatal("Join accepted after the system drained")
	}
}
