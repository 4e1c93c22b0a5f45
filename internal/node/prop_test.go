package node

import (
	"fmt"
	"testing"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/trace"
)

// TestPropLoopRunMatchesSequential is the networking analogue of the csp
// property: replay each generated trace's per-process projections over a
// LoopTransport cluster (processes scattered across nodes by the input's
// deterministic rand), collect and reconstruct the run on node 0, and
// require the distributed stamps to equal a sequential core.StampTrace
// replay byte for byte — and to characterize ↦ exactly (Theorem 4 against
// the ground-truth message poset).
func TestPropLoopRunMatchesSequential(t *testing.T) {
	check.Run(t, check.Config{Runs: 8, MaxProcs: 6, MaxMessages: 24}, func(in *check.Input) error {
		tr := in.Trace
		rng := in.Rand()

		// Scatter processes over up to 3 nodes. Process 0 pins node 0 so
		// the collector always hosts something, and node indices are
		// compacted so every node up to the maximum is populated.
		nodes := 1 + rng.Intn(3)
		if nodes > tr.N {
			nodes = tr.N
		}
		placement := make([]int, tr.N)
		for p := 1; p < tr.N; p++ {
			placement[p] = rng.Intn(nodes)
		}
		used := make([]int, nodes)
		for _, host := range placement {
			used[host]++
		}
		compact := make([]int, nodes)
		next := 0
		for h, cnt := range used {
			if cnt > 0 {
				compact[h] = next
				next++
			}
		}
		for p, host := range placement {
			placement[p] = compact[host]
		}
		nodes = next

		programs := make(map[int]func(*Process) error, tr.N)
		proj := tr.ProcOps()
		for proc := 0; proc < tr.N; proc++ {
			mine := proj[proc]
			me := proc
			programs[proc] = func(p *Process) error {
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
				return nil
			}
		}

		res, results, err := runCluster(in.Dec, placement, loopTransports(nodes), programs,
			Config{HandshakeTimeout: 10 * time.Second, RendezvousTimeout: 10 * time.Second})
		if err != nil {
			return err
		}
		for i, r := range results {
			if r.err != nil {
				return fmt.Errorf("node %d: %w", i, r.err)
			}
		}
		if got, want := res.Trace.NumMessages(), tr.NumMessages(); got != want {
			return fmt.Errorf("cluster reconstructed %d messages, replayed %d", got, want)
		}
		return check.Verify(res, in.Dec)
	})
}
