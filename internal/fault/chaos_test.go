package fault_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/fault"
	"syncstamp/internal/graph"
	"syncstamp/internal/node"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/trace"
)

// chaosResult is one node's outcome of a faulty cluster run.
type chaosResult struct {
	info  *node.RunInfo
	err   error
	stats fault.Stats
}

// fast recovery tunables for in-memory chaos runs: a small initial RTT
// guess and tight RTO bounds keep retries at millisecond scale. The cap
// matters most: under the default 2 s one, a streak of drops leaves a
// sender waiting seconds between retries, and a peer it suspects can go
// the whole 5 s reconnect window without a frame to heal it.
func chaosRecovery(policy node.PeerLossPolicy) *node.RecoveryConfig {
	return &node.RecoveryConfig{
		OnPeerLoss:      policy,
		ReconnectWindow: 5 * time.Second,
		Async: &tssync.Config{
			RTTInit: 5 * time.Millisecond,
			RTOMin:  time.Millisecond,
			RTOMax:  100 * time.Millisecond,
		},
	}
}

// runChaos drives a cluster with one process per node over a Loop fabric,
// each node's transport wrapped with the plan's fault schedule, and
// collects the reconstruction on node 0.
func runChaos(dec *decomp.Decomposition, plan *fault.Plan, rec *node.RecoveryConfig,
	programs map[int]func(*node.Process) error) (*csp.Result, []chaosResult, error) {
	nodes := dec.N()
	placement := make([]int, nodes)
	for p := range placement {
		placement[p] = p
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

// verifySequential checks a reconstructed faulty run against the fault-free
// sequential Figure 5 replay, stamp for stamp, and against Theorem 4. It
// then streams the logs node 0 collected through a 2-leaf collector tree:
// the streaming verifier must accept every run the oracle accepts, under
// every fault schedule.
func verifySequential(res *csp.Result, results []chaosResult, dec *decomp.Decomposition, wantMessages int) error {
	if got := res.Trace.NumMessages(); got != wantMessages {
		return fmt.Errorf("reconstructed %d messages, want %d (at-least-once delivery leaked a duplicate?)", got, wantMessages)
	}
	if err := check.Verify(res, dec); err != nil {
		return err
	}
	return verifyTree(results, dec, wantMessages)
}

// verifyTree feeds the logs of every node node 0 did not exclude — the
// reports its Collect joined — through a collector tree and requires a
// clean verdict over exactly wantMessages messages.
func verifyTree(results []chaosResult, dec *decomp.Decomposition, wantMessages int) error {
	excluded := make([]bool, len(results))
	for _, j := range results[0].info.Excluded {
		excluded[j] = true
	}
	logs := make([][]csp.Record, dec.N())
	for j, r := range results {
		if excluded[j] {
			continue
		}
		for p, log := range r.info.Logs {
			logs[p] = log
		}
	}
	tree, err := node.NewCollectorTree(check.NewDecompTopology(dec), node.TreeConfig{Leaves: 2})
	if err != nil {
		return err
	}
	for p, log := range logs {
		for _, rec := range log {
			if err := tree.Ingest(p, rec); err != nil {
				return err
			}
		}
	}
	v, err := tree.Finish()
	if err != nil {
		return err
	}
	if !v.OK {
		return fmt.Errorf("collector tree rejected a run the oracle accepts: %v", v.Problems)
	}
	if v.Messages != int64(wantMessages) {
		return fmt.Errorf("collector tree counts %d messages, want %d", v.Messages, wantMessages)
	}
	return nil
}

// TestChaosMatrixStampsMatchSequential is the tentpole's correctness gate:
// across five topology families and eight seeds each, a computation run
// under an at-least-once fault schedule (drop + duplicate + reorder on
// every link) must produce exactly the stamps of a fault-free sequential
// replay. Retransmission masks the drops, dedup masks the duplicates and
// the retransmissions' own duplicates, and the injector's relay re-encodes
// every frame it delivers against its receiver's delta baselines, so
// vectors decode exactly out of order.
func TestChaosMatrixStampsMatchSequential(t *testing.T) {
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
	for _, fam := range families {
		for seed := int64(1); seed <= 8; seed++ {
			fam := fam
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", fam.name, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				tr := trace.Generate(fam.g, trace.GenOptions{Messages: 18, InternalProb: 0.1}, rng)
				dec := decomp.Best(fam.g)
				plan := &fault.Plan{
					Seed:  seed,
					Links: []fault.LinkFault{{From: -1, To: -1, Drop: 0.15, Dup: 0.15, Reorder: 0.1}},
				}
				res, results, err := runChaos(dec, plan, chaosRecovery(node.PeerLossWait), node.ReplayPrograms(tr))
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

// TestChaosConnectionResetReconnects injects scheduled connection resets
// into a two-node ping-pong and requires the session to resume: the run
// completes, the stamps match the fault-free replay, and the reconnect is
// visible in RunInfo.
func TestChaosConnectionResetReconnects(t *testing.T) {
	g := graph.Path(2)
	dec := decomp.Best(g)
	rounds := 12
	tr := &trace.Trace{N: 2}
	for i := 0; i < rounds; i++ {
		tr.Ops = append(tr.Ops, trace.Message(0, 1), trace.Message(1, 0))
	}
	plan := &fault.Plan{
		Seed:  1,
		Links: []fault.LinkFault{{From: -1, To: -1, ResetAfter: []int{4, 11}}},
	}
	res, results, err := runChaos(dec, plan, chaosRecovery(node.PeerLossWait), node.ReplayPrograms(tr))
	if err != nil {
		t.Fatal(err)
	}
	var reconnects, resets int64
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
		reconnects += r.info.Reconnects
		resets += r.stats.Resets
	}
	if resets == 0 {
		t.Fatal("fault plan scheduled resets but none fired")
	}
	if reconnects == 0 {
		t.Fatalf("connections were reset (%d) but no node recorded a reconnect", resets)
	}
	if err := verifySequential(res, results, dec, tr.NumMessages()); err != nil {
		t.Fatal(err)
	}
}

// TestChaosExcludeKeepsSurvivorsStamping kills one node of a three-node
// run and requires the OnPeerLoss=exclude policy to keep the surviving
// topology stamping: parked rendezvous on the dead peer return ErrPeerLost,
// the survivors' run completes, the victim lands in RunInfo.Excluded, and
// the reconstruction over the surviving logs still matches the sequential
// replay of what was committed.
func TestChaosExcludeKeepsSurvivorsStamping(t *testing.T) {
	g := graph.Complete(3)
	dec := decomp.Best(g)
	victimErr := errors.New("victim dies on schedule")
	programs := map[int]func(*node.Process) error{
		0: func(p *node.Process) error {
			if _, err := p.Send(1); err != nil {
				return err
			}
			if _, err := p.RecvFrom(1); err != nil {
				return err
			}
			// The victim is gone by now (or dies while we are parked); its
			// exclusion must answer this send with ErrPeerLost.
			if _, err := p.Send(2); !errors.Is(err, node.ErrPeerLost) {
				return fmt.Errorf("send to dead peer: got %v, want ErrPeerLost", err)
			}
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
			return victimErr
		},
	}
	rec := chaosRecovery(node.PeerLossExclude)
	rec.Async.RTOMin = 5 * time.Millisecond
	rec.ReconnectWindow = 200 * time.Millisecond
	res, results, err := runChaos(dec, &fault.Plan{Seed: 1}, rec, programs)
	if err != nil {
		t.Fatal(err)
	}
	if results[2].err == nil || !errors.Is(results[2].err, victimErr) {
		t.Fatalf("victim run: got %v, want %v", results[2].err, victimErr)
	}
	for i := 0; i < 2; i++ {
		if results[i].err != nil {
			t.Fatalf("survivor node %d: %v", i, results[i].err)
		}
		excl := results[i].info.Excluded
		if len(excl) != 1 || excl[0] != 2 {
			t.Fatalf("survivor node %d excluded %v, want [2]", i, excl)
		}
		if st := results[i].info.PeerHealth[2]; st != "excluded" {
			t.Fatalf("survivor node %d sees excluded peer 2 as %q, want excluded", i, st)
		}
	}
	// Only the 0↔1 round-trip committed; the reconstruction must cover
	// exactly it and stamp it as the fault-free replay would.
	if err := verifySequential(res, results, dec, 2); err != nil {
		t.Fatal(err)
	}
}

// TestChaosExcludeWakesParkedReceiver kills one node of a three-node run
// while a survivor is parked receiving from it. Under OnPeerLoss=exclude
// the receive must end with ErrPeerLost once the victim is excluded, and a
// send to the victim after that must fail the same way. The other survivor
// is parked receiving from a live peer when it excludes the victim, and
// must keep waiting for it.
func TestChaosExcludeWakesParkedReceiver(t *testing.T) {
	dec := decomp.Best(graph.Complete(3))
	victimErr := errors.New("victim dies on schedule")
	programs := map[int]func(*node.Process) error{
		0: func(p *node.Process) error {
			if _, err := p.RecvFrom(2); !errors.Is(err, node.ErrPeerLost) {
				return fmt.Errorf("receive from dead peer: got %v, want ErrPeerLost", err)
			}
			if _, err := p.Send(2); !errors.Is(err, node.ErrPeerLost) {
				return fmt.Errorf("send to excluded peer: got %v, want ErrPeerLost", err)
			}
			_, err := p.Send(1)
			return err
		},
		1: func(p *node.Process) error {
			_, err := p.RecvFrom(0)
			return err
		},
		2: func(p *node.Process) error {
			return victimErr
		},
	}
	rec := chaosRecovery(node.PeerLossExclude)
	rec.ReconnectWindow = 200 * time.Millisecond
	res, results, err := runChaos(dec, &fault.Plan{Seed: 1}, rec, programs)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[2].err, victimErr) {
		t.Fatalf("victim run: got %v, want %v", results[2].err, victimErr)
	}
	for i := 0; i < 2; i++ {
		if results[i].err != nil {
			t.Fatalf("survivor node %d: %v", i, results[i].err)
		}
		if excl := results[i].info.Excluded; len(excl) != 1 || excl[0] != 2 {
			t.Fatalf("survivor node %d excluded %v, want [2]", i, excl)
		}
	}
	if err := verifySequential(res, results, dec, 1); err != nil {
		t.Fatal(err)
	}
}

// TestChaosDelayIsMaskedByRetransmission exercises the delay fate: frames
// stall long enough for the sender's backoff to fire, so the same
// rendezvous travels more than once and dedup has to suppress the extras.
func TestChaosDelayIsMaskedByRetransmission(t *testing.T) {
	g := graph.Path(3)
	dec := decomp.Best(g)
	rng := rand.New(rand.NewSource(3))
	tr := trace.Generate(g, trace.GenOptions{Messages: 12}, rng)
	plan := &fault.Plan{
		Seed:  3,
		Links: []fault.LinkFault{{From: -1, To: -1, DelayMS: 15, DelayProb: 0.3}},
	}
	res, results, err := runChaos(dec, plan, chaosRecovery(node.PeerLossWait), node.ReplayPrograms(tr))
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
}
