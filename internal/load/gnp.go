package load

import (
	"fmt"
	"math/rand"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/node"
	"syncstamp/internal/obs"
)

// GnpConfig shapes a random-topology load run: Messages rendezvous drawn
// uniformly over the edges of a seeded G(n,p) graph, decomposed by the
// Figure 7 heuristic and stamped by the sequential online engine.
// Irregular topologies exercise triangle groups and skewed star sizes the
// client-server workload cannot.
type GnpConfig struct {
	N        int
	P        float64
	Messages int
	Seed     int64
	Tree     node.TreeConfig
	Registry *obs.Registry
}

// RunGnp streams the random workload through the collector tree. The
// engine is sequential (one global rendezvous order), so a run is fully
// deterministic in its seed.
func RunGnp(cfg GnpConfig) (*Result, error) {
	if cfg.N < 2 || cfg.Messages <= 0 {
		return nil, fmt.Errorf("load: gnp needs at least 2 processes and 1 message, got n=%d messages=%d", cfg.N, cfg.Messages)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.RandomConnected(cfg.N, cfg.P, rng)
	dec := decomp.Best(g)
	edges := g.Edges()
	topo := check.NewDecompTopology(dec)
	tree, err := node.NewCollectorTree(topo, cfg.Tree)
	if err != nil {
		return nil, err
	}
	var offered, achieved *obs.Counter
	latency := obs.NewHistogram(obs.LatencyEdges)
	if cfg.Registry != nil {
		offered = cfg.Registry.Counter(obs.MetricLoadOffered)
		achieved = cfg.Registry.Counter(obs.MetricLoadAchieved)
		latency = cfg.Registry.Histogram(obs.MetricLoadLatencyNS, obs.LatencyEdges)
	}
	offered.Add(int64(cfg.Messages))
	st := core.NewStamper(dec)
	start := time.Now()
	for i := 0; i < cfg.Messages; i++ {
		e := edges[rng.Intn(len(edges))]
		from, to := e.U, e.V
		if rng.Intn(2) == 1 {
			from, to = to, from
		}
		t0 := time.Now()
		stamp, err := st.StampMessage(from, to)
		if err != nil {
			return nil, err
		}
		_ = tree.Ingest(from, core.Record{Kind: core.RecordSend, Peer: to, Stamp: stamp})
		_ = tree.Ingest(to, core.Record{Kind: core.RecordRecv, Peer: from, Stamp: stamp})
		latency.Observe(time.Since(t0).Nanoseconds())
		achieved.Add(1)
	}
	elapsed := time.Since(start)
	verdict, err := tree.Finish()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Servers:        0,
		Clients:        cfg.N,
		Messages:       int64(cfg.Messages),
		Elapsed:        elapsed,
		AchievedPerSec: float64(cfg.Messages) / elapsed.Seconds(),
		Latency:        latency.Snapshot(),
		Verdict:        verdict,
	}
	if cfg.Tree.KeepLogs {
		res.Logs = tree.Logs()
		res.Dec = dec
	}
	return res, nil
}
