package fault_test

import (
	"testing"
	"time"

	"syncstamp/internal/fault"
	"syncstamp/internal/node"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// TestCrashFiresOnFailedWrite pins the crash schedule to frames, not to
// successful writes: the peer closes its end right after the HELLO, so the
// SYN that reaches node 0's one-frame crash threshold fails to write, and
// CrashFn must fire anyway. Otherwise a node whose threshold frame goes to
// a peer that just died never crashes.
func TestCrashFiresOnFailedWrite(t *testing.T) {
	const d = 2
	l := node.NewLoop(2)
	plan := &fault.Plan{Seed: 1, Crashes: []fault.Crash{{Node: 0, AfterFrames: 1}}}
	ft := fault.New(l.Transport(0), plan, 0)
	crashes := 0
	ft.CrashFn = func() { crashes++ }

	closed := make(chan error, 1)
	go func() {
		c, err := l.Transport(1).Accept()
		if err != nil {
			closed <- err
			return
		}
		_, err = wire.NewDecoder(c, d).Decode()
		_ = c.Close()
		closed <- err
	}()

	c, err := ft.Dial(1, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enc := wire.NewEncoder(c, d)
	if err := enc.Encode(&wire.Frame{Kind: wire.KindHello, Role: wire.RoleData, Node: 0, Procs: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("far side reading the HELLO: %v", err)
	}
	syn := &wire.Frame{Kind: wire.KindSyn, From: 0, To: 1, Seq: 1, Vec: vector.New(d)}
	if err := enc.Encode(syn); err == nil {
		t.Fatal("SYN write to a closed peer succeeded")
	}
	if crashes != 1 {
		t.Fatalf("CrashFn ran %d times, want 1 (the threshold frame's write failed)", crashes)
	}
}
