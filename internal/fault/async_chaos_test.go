package fault_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/fault"
	"syncstamp/internal/graph"
	"syncstamp/internal/node"
	"syncstamp/internal/trace"
)

// asyncMatrixSeeds reports how many seeds per cell the matrix runs: the
// full eight of the acceptance gate under SYNCSTAMP_ASYNC_MATRIX=full (the
// make chaos-test / CI setting), a fast sample of two otherwise.
func asyncMatrixSeeds() int64 {
	if os.Getenv("SYNCSTAMP_ASYNC_MATRIX") == "full" {
		return 8
	}
	return 2
}

// TestAsyncMatrixStampsMatchSequential is the synchronizer's correctness
// gate: across the topology families, loss rates up to 20%, and the three
// jitter profiles (fixed, lognormal, pareto), a computation run over the
// never-synchronous substrate, retransmitting on a per-peer adaptive RTO,
// must still produce exactly the stamps of a fault-free sequential replay.
// Latency and loss may reshape every schedule; they must never reshape a
// timestamp.
func TestAsyncMatrixStampsMatchSequential(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"path4", graph.Path(4)},
		{"star5", graph.Star(5, 0)},
		{"cycle5", graph.Cycle(5)},
		{"clientserver", graph.ClientServer(2, 3, false)},
		{"complete4", graph.Complete(4)},
	}
	jitters := []*fault.JitterSpec{
		{Dist: fault.JitterFixed, MeanMS: 1},
		{Dist: fault.JitterLognormal, MeanMS: 1, Sigma: 0.8},
		{Dist: fault.JitterPareto, MeanMS: 1, Alpha: 2.5},
	}
	losses := []float64{0.05, 0.10, 0.20}
	seeds := asyncMatrixSeeds()
	full := seeds > 2
	for _, fam := range families {
		for seed := int64(1); seed <= seeds; seed++ {
			for ji, jit := range jitters {
				for li, loss := range losses {
					// The fast sample pairs loss and jitter diagonally per
					// seed; the full matrix crosses them.
					if !full && li != (ji+int(seed))%len(losses) {
						continue
					}
					fam, seed, jit, loss := fam, seed, jit, loss
					name := fmt.Sprintf("%s/seed%d/%s/loss%d", fam.name, seed, jit.Dist, int(loss*100))
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						rng := rand.New(rand.NewSource(seed))
						tr := trace.Generate(fam.g, trace.GenOptions{Messages: 12, InternalProb: 0.1}, rng)
						dec := decomp.Best(fam.g)
						plan := &fault.Plan{
							Seed:  seed,
							Links: []fault.LinkFault{{From: -1, To: -1, Drop: loss, Dup: loss / 2}},
						}
						plan.ApplyJitter(jit)
						if err := plan.Validate(); err != nil {
							t.Fatal(err)
						}
						res, results, err := runChaos(dec, plan, chaosRecovery(node.PeerLossWait), projectionPrograms(tr))
						if err != nil {
							t.Fatal(err)
						}
						for i, r := range results {
							if r.err != nil {
								t.Fatalf("node %d: %v", i, r.err)
							}
						}
						if err := verifySequential(res, results, dec, tr.NumMessages()); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// runChaosPlaced is runChaos with an explicit process placement: the
// cluster size is max(placement)+1, and the reconstruction is collected on
// node 0 as usual.
func runChaosPlaced(dec *decomp.Decomposition, placement []int, plan *fault.Plan,
	rec *node.RecoveryConfig, programs map[int]func(*node.Process) error) (*csp.Result, []chaosResult, error) {
	nodes := 0
	for _, host := range placement {
		if host+1 > nodes {
			nodes = host + 1
		}
	}
	l := node.NewLoop(nodes)
	results := make([]chaosResult, nodes)
	var collected *csp.Result
	var collectErr error
	done := make(chan int, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			defer func() { done <- i }()
			ft := fault.New(l.Transport(i), plan, i)
			n, err := node.New(node.Config{
				Node:              i,
				Placement:         placement,
				Dec:               dec,
				HandshakeTimeout:  20 * time.Second,
				RendezvousTimeout: 20 * time.Second,
				Recovery:          rec,
			}, ft)
			if err != nil {
				results[i].err = err
				return
			}
			defer n.Close()
			info, err := n.Run(programs)
			results[i] = chaosResult{info: info, err: err, stats: ft.Stats()}
			if err != nil {
				return
			}
			if i == 0 {
				collected, collectErr = n.Collect(info, 20*time.Second)
			} else {
				results[i].err = n.SendReport(0, info)
			}
			results[i].stats = ft.Stats()
		}(i)
	}
	for i := 0; i < nodes; i++ {
		<-done
	}
	return collected, results, collectErr
}

// TestAsyncSuspicionExcludesUnresponsivePeer drives the health FSM end to
// end over a connection that never dies: node 2's SYN/ACK traffic toward
// node 0 is blackholed while the connection stays up, so node 0's only
// signal is silence — consecutive retransmission timeouts march the peer
// through degraded and suspect, the reconnect window passes with no
// liveness evidence, and the exclude policy removes the peer exactly as it
// would on a crash. Reconnects must stay zero: this is degradation by
// suspicion, not by connection loss.
func TestAsyncSuspicionExcludesUnresponsivePeer(t *testing.T) {
	g := graph.Complete(3)
	dec := decomp.Best(g)
	victimErr := errors.New("victim held past exclusion")
	release := make(chan struct{})
	programs := map[int]func(*node.Process) error{
		0: func(p *node.Process) error {
			if _, err := p.Send(1); err != nil {
				return err
			}
			if _, err := p.RecvFrom(1); err != nil {
				return err
			}
			// Node 2 answers this rendezvous — but its ACK is blackholed, so
			// from here the peer is indistinguishable from a hung process.
			// Suspicion must mature into exclusion and wake this send.
			if _, err := p.Send(2); !errors.Is(err, node.ErrPeerLost) {
				return fmt.Errorf("send to unresponsive peer: got %v, want ErrPeerLost", err)
			}
			close(release)
			return nil
		},
		1: func(p *node.Process) error {
			if _, err := p.RecvFrom(0); err != nil {
				return err
			}
			if _, err := p.Send(0); err != nil {
				return err
			}
			return nil
		},
		2: func(p *node.Process) error {
			if _, err := p.RecvFrom(0); err != nil {
				return err
			}
			// Hold until node 0 has excluded us; erroring out (instead of
			// returning) keeps our BYE off the wire, so no late liveness
			// evidence races the watchdog.
			select {
			case <-release:
			case <-time.After(15 * time.Second):
			}
			return victimErr
		},
	}
	plan := &fault.Plan{
		Seed:  1,
		Links: []fault.LinkFault{{From: 2, To: 0, Drop: 1.0}},
	}
	rec := chaosRecovery(node.PeerLossExclude)
	rec.ReconnectWindow = 250 * time.Millisecond
	res, results, err := runChaos(dec, plan, rec, programs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results[:2] {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
	}
	if !errors.Is(results[2].err, victimErr) {
		t.Fatalf("victim: got %v, want its own scripted error", results[2].err)
	}
	info0 := results[0].info
	if len(info0.Excluded) != 1 || info0.Excluded[0] != 2 {
		t.Fatalf("node 0 excluded %v, want [2]", info0.Excluded)
	}
	if info0.Suspicions == 0 {
		t.Fatal("exclusion happened without a recorded suspicion")
	}
	if info0.PeerHealth[2] != "excluded" {
		t.Fatalf("node 0 sees peer 2 as %q, want excluded", info0.PeerHealth[2])
	}
	if st := info0.PeerHealth[1]; st != "healthy" {
		t.Fatalf("node 0 sees peer 1 as %q, want healthy", st)
	}
	for i, r := range results[:2] {
		if r.info.Reconnects != 0 {
			t.Fatalf("node %d reconnected %d times; suspicion-driven exclusion must not touch the connection", i, r.info.Reconnects)
		}
	}
	// The surviving computation still verifies: two committed messages,
	// stamps equal to their sequential replay, victim components frozen.
	if err := verifySequential(res, results, dec, 2); err != nil {
		t.Fatal(err)
	}
}

// TestPropAsyncExclusionPreservesFrozenStamps is the property-level version
// of the suspicion test, generalized over check's generated computations:
// any trace, run to completion over the async substrate, then extended by
// one rendezvous into a peer whose replies are blackholed, must (a) exclude
// that peer by suspicion alone and (b) leave the committed computation's
// stamps exactly equal to their sequential replay — the excluded node's
// vector components frozen at zero throughout.
func TestPropAsyncExclusionPreservesFrozenStamps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node exclusion windows are slow under -short")
	}
	check.Run(t, check.Config{Runs: 5, MaxProcs: 4, MaxMessages: 12}, func(in *check.Input) error {
		tr := in.Trace
		rng := in.Rand()

		// Augment: one new process w, adjacent to process 0, receiving one
		// final message from it. w lives alone on a victim node whose
		// replies toward node 0 are blackholed.
		w := tr.N
		g2 := graph.New(tr.N + 1)
		for _, e := range in.Topo.Edges() {
			g2.AddEdge(e.U, e.V)
		}
		g2.AddEdge(0, w)
		dec := decomp.Best(g2)

		// Scatter the original processes over two survivor nodes (process 0
		// pinned to the collector), compacting away an unused node 1.
		placement := make([]int, tr.N+1)
		survivors := 1
		for p := 1; p < tr.N; p++ {
			placement[p] = rng.Intn(2)
			if placement[p] == 1 {
				survivors = 2
			}
		}
		if survivors == 1 {
			for p := 1; p < tr.N; p++ {
				placement[p] = 0
			}
		}
		victim := survivors
		placement[w] = victim

		victimErr := errors.New("victim held past exclusion")
		release := make(chan struct{})
		programs := make(map[int]func(*node.Process) error, tr.N+1)
		proj := tr.ProcOps()
		for proc := 0; proc < tr.N; proc++ {
			mine := proj[proc]
			me := proc
			programs[proc] = func(p *node.Process) error {
				for _, k := range mine {
					op := tr.Ops[k]
					switch {
					case op.Kind == trace.OpInternal:
						p.Internal(fmt.Sprint(k))
					case op.From == me:
						if _, err := p.Send(op.To); err != nil {
							return err
						}
					default:
						if _, err := p.RecvFrom(op.From); err != nil {
							return err
						}
					}
				}
				if me == 0 {
					if _, err := p.Send(w); !errors.Is(err, node.ErrPeerLost) {
						return fmt.Errorf("send to blackholed peer: got %v, want ErrPeerLost", err)
					}
					close(release)
				}
				return nil
			}
		}
		programs[w] = func(p *node.Process) error {
			if _, err := p.RecvFrom(0); err != nil {
				return err
			}
			select {
			case <-release:
			case <-time.After(15 * time.Second):
			}
			return victimErr
		}

		plan := &fault.Plan{
			Seed:  in.Seed,
			Links: []fault.LinkFault{{From: victim, To: 0, Drop: 1.0}},
		}
		rec := chaosRecovery(node.PeerLossExclude)
		rec.ReconnectWindow = 250 * time.Millisecond
		res, results, err := runChaosPlaced(dec, placement, plan, rec, programs)
		if err != nil {
			return err
		}
		for i, r := range results[:victim] {
			if r.err != nil {
				return fmt.Errorf("node %d: %w", i, r.err)
			}
		}
		if !errors.Is(results[victim].err, victimErr) {
			return fmt.Errorf("victim: got %v, want its own scripted error", results[victim].err)
		}
		info0 := results[0].info
		if len(info0.Excluded) != 1 || info0.Excluded[0] != victim {
			return fmt.Errorf("node 0 excluded %v, want [%d]", info0.Excluded, victim)
		}
		if info0.Suspicions == 0 {
			return errors.New("exclusion happened without a recorded suspicion")
		}
		if info0.Reconnects != 0 {
			return fmt.Errorf("node 0 reconnected %d times during suspicion-driven exclusion", info0.Reconnects)
		}
		// Every committed message is one of the original trace; the extra
		// rendezvous into the victim committed on the victim's side only and
		// must not surface in the surviving reconstruction.
		return verifySequential(res, results, dec, tr.NumMessages())
	})
}
