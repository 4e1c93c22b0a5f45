package fault_test

import (
	"math/rand"
	"testing"

	"syncstamp/internal/decomp"
	"syncstamp/internal/fault"
	"syncstamp/internal/graph"
	"syncstamp/internal/node"
	"syncstamp/internal/trace"
)

// FuzzFaultPlan throws arbitrary fault schedules at a fixed-topology run
// over the Loop fabric and requires the invariant the whole subsystem
// rests on: no achievable combination of drops, duplicates, reorders, and
// connection resets may make the recovered run's stamps disagree with the
// ground-truth fault-free replay. Probabilities are capped below 0.5 so
// every schedule keeps at-least-once delivery achievable.
func FuzzFaultPlan(f *testing.F) {
	f.Add(int64(1), byte(0), byte(0), byte(0), uint8(0))
	f.Add(int64(2), byte(64), byte(64), byte(32), uint8(0))
	f.Add(int64(3), byte(120), byte(0), byte(0), uint8(5))
	f.Add(int64(4), byte(0), byte(127), byte(127), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, drop, dup, reorder byte, resetAt uint8) {
		link := fault.LinkFault{
			From:    -1,
			To:      -1,
			Drop:    float64(drop%128) / 256.0,
			Dup:     float64(dup%128) / 256.0,
			Reorder: float64(reorder%128) / 256.0,
		}
		if resetAt > 0 {
			link.ResetAfter = []int{int(resetAt)}
		}
		plan := &fault.Plan{Seed: seed, Links: []fault.LinkFault{link}}
		if err := plan.Validate(); err != nil {
			t.Fatalf("constructed plan invalid: %v", err)
		}

		g := graph.Path(3)
		dec := decomp.Best(g)
		rng := rand.New(rand.NewSource(seed))
		tr := trace.Generate(g, trace.GenOptions{Messages: 10, InternalProb: 0.1}, rng)

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
