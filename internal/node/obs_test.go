package node

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/obs"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// exportClusterEventFiles runs a fixed two-node computation over the Loop
// fabric with per-node observability (fake clocks) and returns each node's
// event file, as tsnode -obs-trace writes it.
func exportClusterEventFiles(t *testing.T) [][]byte {
	t.Helper()
	dir := t.TempDir()
	dec := decomp.Approximate(graph.Path(2))
	placement := []int{0, 1}
	l := NewLoop(2)
	oses := []*obs.Obs{obs.New(), obs.New()}
	for _, o := range oses {
		o.Clock = &obs.Manual{}
	}
	programs := map[int]func(*Process) error{
		0: func(p *Process) error {
			if _, err := p.Send(1); err != nil {
				return err
			}
			_, err := p.RecvFrom(1)
			return err
		},
		1: func(p *Process) error {
			if _, err := p.RecvFrom(0); err != nil {
				return err
			}
			p.Internal("done")
			_, err := p.Send(0)
			return err
		},
	}
	outs := make([][]byte, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := New(Config{Node: i, Placement: placement, Dec: dec, Obs: oses[i]}, l.Transport(i))
			if err != nil {
				errs[i] = err
				return
			}
			defer n.Close()
			info, err := n.Run(programs)
			if err != nil {
				errs[i] = err
				return
			}
			if info.Dropped != 0 {
				t.Errorf("node %d dropped %d frames in a clean run", i, info.Dropped)
			}
			if info.Frames.Frames[wire.KindSyn] != 1 || info.Frames.Frames[wire.KindAck] != 1 {
				t.Errorf("node %d frame stats: %+v", i, info.Frames)
			}
			path := filepath.Join(dir, fmt.Sprintf("node%d.events", i))
			meta := DumpMeta{Node: i, Dec: dec, Frames: info.Frames}
			if err := WriteFlightDump(path, meta, oses[i].Recorder.Events()); err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = os.ReadFile(path)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return outs
}

// TestNodeObsDeterministicEventFiles: two full cluster runs (fresh fabrics,
// fresh interleavings) export byte-identical per-node event files, wire
// accounting included.
func TestNodeObsDeterministicEventFiles(t *testing.T) {
	leakCheck(t)
	a := exportClusterEventFiles(t)
	b := exportClusterEventFiles(t)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("node %d's event file differs across runs:\n%x\n---\n%x", i, a[i], b[i])
		}
		if len(a[i]) == 0 {
			t.Errorf("node %d exported an empty trace", i)
		}
	}
}

// TestReadLoopCountsDroppedFrames feeds a data connection a stray INTERNAL
// frame and an ACK no send is waiting for: both are counted and dropped, the
// reader survives past the BYE until the stream ends, and the counter
// surfaces in the registry.
func TestReadLoopCountsDroppedFrames(t *testing.T) {
	leakCheck(t)
	dec := decomp.Approximate(graph.Path(2))
	o := obs.New()
	l := NewLoop(2)
	n, err := New(Config{Node: 0, Placement: []int{0, 1}, Dec: dec, Obs: o}, l.Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	pc := &peerConn{n: n, node: 1, c: server, dec: wire.NewDecoder(server, dec.D()), enc: wire.NewEncoder(server, dec.D())}
	n.readersWG.Add(1)
	go n.readLoop(pc)

	enc := wire.NewEncoder(client, dec.D())
	for _, f := range []*wire.Frame{
		{Kind: wire.KindInternal, Proc: 0, Note: "stray"},
		{Kind: wire.KindAck, From: 1, To: 0, Vec: vector.New(dec.D())},
		{Kind: wire.KindBye},
	} {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	// The reader keeps draining after BYE; ending the stream ends it.
	_ = client.Close()
	n.readersWG.Wait()

	if got := n.DroppedFrames(); got != 2 {
		t.Errorf("DroppedFrames = %d, want 2", got)
	}
	if got := o.Metrics.Snapshot().Counters[obs.MetricDroppedFrames]; got != 2 {
		t.Errorf("%s = %d, want 2", obs.MetricDroppedFrames, got)
	}
	if err := n.failure(); err != nil {
		t.Errorf("dropped frames must not fail the node: %v", err)
	}
}

// TestReadLoopRefusesForeignSender feeds node 0's data connection from node
// 1 a SYN whose sender is out of range, then one whose sender is placed on
// node 0 itself. The receive path keeps one dedup slot per sender, so each
// frame must fail the run with an error naming the sender, not index past
// the table or deliver a rendezvous node 1 cannot have started.
func TestReadLoopRefusesForeignSender(t *testing.T) {
	leakCheck(t)
	dec := decomp.Approximate(graph.Path(2))
	for _, from := range []int{7, 0} {
		n, err := New(Config{Node: 0, Placement: []int{0, 1}, Dec: dec}, NewLoop(2).Transport(0))
		if err != nil {
			t.Fatal(err)
		}
		client, server := net.Pipe()
		pc := &peerConn{n: n, node: 1, c: server, dec: wire.NewDecoder(server, dec.D()), enc: wire.NewEncoder(server, dec.D())}
		n.readersWG.Add(1)
		go n.readLoop(pc)
		syn := &wire.Frame{Kind: wire.KindSyn, From: from, To: 0, Seq: 1, Vec: vector.New(dec.D())}
		if err := wire.NewEncoder(client, dec.D()).Encode(syn); err != nil {
			t.Fatal(err)
		}
		_ = client.Close()
		n.readersWG.Wait()
		err = n.failure()
		n.Close()
		_ = server.Close()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("sender process %d", from)) {
			t.Errorf("SYN from process %d: node failure %v, want one naming the sender", from, err)
		}
	}
}

// TestNodeObsDisabledHookAllocs pins the acceptance criterion that a node
// without Config.Obs pays zero allocations for the instrumentation on its
// rendezvous paths (the exact call sequence Send/complete/Recv execute).
func TestNodeObsDisabledHookAllocs(t *testing.T) {
	dec := decomp.Approximate(graph.Path(2))
	l := NewLoop(2)
	n, err := New(Config{Node: 0, Placement: []int{0, 1}, Dec: dec}, l.Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	stamp := vector.V{1}
	allocs := testing.AllocsPerRun(200, func() {
		n.cfg.Obs.Rendezvous(n.cfg.Node, 0, 1, obs.PhaseSyn, stamp)
		t0 := n.cfg.Obs.Now()
		n.ins.SendBlockNS.Observe(n.cfg.Obs.Now() - t0)
		n.ins.SynAckNS.Observe(0)
		n.ins.RecvBlockNS.Observe(0)
		n.cfg.Obs.Rendezvous(n.cfg.Node, 0, 1, obs.PhaseAdopt, stamp)
		n.ins.Rendezvous.Add(1)
		n.ins.Proc(0).Add(1)
		n.ins.InternalEvents.Add(1)
		n.wireFrames[wire.KindSyn].Add(1)
		n.wireBytes[wire.KindSyn].Add(8)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs hooks allocated %v times per run, want 0", allocs)
	}
}

// countingClock is an obs.Clock that counts its reads.
type countingClock struct{ reads atomic.Int64 }

func (c *countingClock) Now() int64 { return c.reads.Add(1) }

// TestFlightOnlyObsReadsNoClock: a node whose Obs has a clock but no
// registry, with the flight recorder on, records every rendezvous yet never
// reads the clock — the latencies it would time have no histogram to go to.
func TestFlightOnlyObsReadsNoClock(t *testing.T) {
	leakCheck(t)
	const rounds = 5
	dec := decomp.Approximate(graph.Path(2))
	transports := loopTransports(2)
	var clock countingClock
	oses := []*obs.Obs{{Clock: &clock}, {Clock: &clock}}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := New(Config{Node: i, Placement: []int{0, 1}, Dec: dec, Obs: oses[i], FlightRecorder: 64}, transports[i])
			if err != nil {
				errs[i] = err
				return
			}
			defer n.Close()
			_, errs[i] = n.Run(pingPong(rounds))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		// Each process sends and receives rounds times: SYN and ADOPT per
		// send, MERGE and ACK per receive.
		if got := oses[i].Recorder.Recorded(); got != 4*rounds {
			t.Errorf("node %d recorded %d events, want %d", i, got, 4*rounds)
		}
	}
	if got := clock.reads.Load(); got != 0 {
		t.Fatalf("clock read %d times over %d sends, want 0", got, 2*rounds)
	}
}
