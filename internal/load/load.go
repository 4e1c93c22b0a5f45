// Package load is the open-loop workload driver behind cmd/tsload: it
// simulates large client populations timestamping rendezvous against a
// server pool and streams every logged record through the sharded collector
// tree, so a run's verdict and its resource counters come out of the same
// machinery a distributed deployment uses.
//
// The driver is open-loop: arrivals follow a seeded schedule fixed before
// the run (Poisson or uniform inter-arrival times, Zipf-skewed server
// popularity), so a slow system cannot push back on its own offered load —
// the gap between offered and achieved rate, and the latency percentiles
// measured from each request's scheduled due time, are the signal.
//
// Clients are state, not goroutines: a client is a mutex, its row of a
// core.Stamper, and a position in its schedule, so millions fit where
// millions of goroutines would not. A fixed pool of workers drives the
// schedules; clients are partitioned across workers (client mod workers),
// which preserves each client's program order without cross-worker
// coordination, and servers are shared under their own locks. Workers = 1
// is fully deterministic: same config, same logs, same verdict.
package load

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/node"
	"syncstamp/internal/obs"
)

// Arrival selects the inter-arrival time distribution of a client's
// schedule.
type Arrival string

const (
	// ArrivalPoisson draws exponential inter-arrival times — the classic
	// open-loop arrival process.
	ArrivalPoisson Arrival = "poisson"
	// ArrivalUniform draws uniform inter-arrival times in [0, 2·mean).
	ArrivalUniform Arrival = "uniform"
)

// Config shapes one load run.
type Config struct {
	// Servers and Clients size the client-server topology: processes
	// 0..Servers-1 are servers, the rest clients (graph.ClientServer's
	// numbering). Every client-server channel belongs to the star group
	// rooted at its server, so the vector dimension is Servers.
	Servers int
	Clients int
	// MessagesPerClient is each client's schedule length.
	MessagesPerClient int
	// RatePerSec paces the run: the aggregate offered rate in messages per
	// second. 0 runs unpaced (as fast as the workers go), which measures
	// throughput rather than SLO latency.
	RatePerSec float64
	// Arrival is the inter-arrival distribution (default ArrivalPoisson).
	Arrival Arrival
	// ZipfTheta skews server popularity: 0 uniform, about 1 classic Zipf.
	ZipfTheta float64
	// Seed makes schedules deterministic; runs with equal seeds offer
	// identical workloads.
	Seed int64
	// Workers is the driver goroutine count (default 1, the deterministic
	// mode; raise it to drive the collector tree concurrently).
	Workers int

	// Tree configures the collector the run streams into. Leaves defaults
	// to 1; SpillDir/SegmentRecords/KeepLogs pass through.
	Tree node.TreeConfig

	// Registry, when non-nil, receives the offered/achieved counters and
	// the request latency histogram under the obs.MetricLoad* names.
	Registry *obs.Registry
}

// Result is a load run's outcome.
type Result struct {
	Servers, Clients int
	// Messages is the number of rendezvous completed (= scheduled; the
	// driver always drains its schedule).
	Messages int64
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// OfferedPerSec is the configured offered rate (0 when unpaced);
	// AchievedPerSec is Messages/Elapsed. Achieved tracking offered is a
	// healthy system; achieved pinned below offered is saturation.
	OfferedPerSec  float64
	AchievedPerSec float64
	// Latency is the per-request latency histogram: paced runs measure
	// from each request's scheduled due time (queueing included — the
	// open-loop SLO number), unpaced runs from request start.
	Latency obs.HistogramSnapshot
	// Verdict is the collector tree's judgment of the run's stamps.
	Verdict *node.TreeVerdict
	// Logs and Dec are set when cfg.Tree.KeepLogs was on: the per-process
	// records and the decomposition to replay them under — the control-run
	// inputs for cross-checking the streaming verdict against the
	// sequential oracle.
	Logs [][]core.Record
	Dec  *decomp.Decomposition
}

// P50 and P99 are the latency percentiles in nanoseconds.
func (r *Result) P50() int64 { return r.Latency.Quantile(0.50) }
func (r *Result) P99() int64 { return r.Latency.Quantile(0.99) }

// Topology is the analytic client-server topology: group s is the star of
// server s, rooted there, covering its client channels. No edge map is
// materialized, so verification state stays flat as clients scale to
// millions.
type Topology struct {
	servers, clients int
}

// NewTopology returns the analytic topology for a server pool.
func NewTopology(servers, clients int) *Topology {
	return &Topology{servers: servers, clients: clients}
}

// N is the process count, servers first.
func (t *Topology) N() int { return t.servers + t.clients }

// D is the group count — one star per server.
func (t *Topology) D() int { return t.servers }

// GroupOf maps a client-server channel to the server's star group.
func (t *Topology) GroupOf(a, b int) (int, bool) {
	if a > b {
		a, b = b, a
	}
	// A channel exists between a server and a client, nothing else.
	if a < 0 || a >= t.servers || b < t.servers || b >= t.N() {
		return 0, false
	}
	return a, true
}

// StarRoot is group g's server.
func (t *Topology) StarRoot(g int) int { return g }

// Decomposition materializes the same star decomposition explicitly, for
// control runs that cross-check the streaming verdict against the
// whole-trace replay oracle. O(clients·servers) — small runs only.
func (t *Topology) Decomposition() *decomp.Decomposition {
	groups := make([]decomp.Group, t.servers)
	for s := 0; s < t.servers; s++ {
		g := decomp.Group{Kind: decomp.KindStar, Root: s}
		for c := t.servers; c < t.N(); c++ {
			g.Edges = append(g.Edges, graph.NewEdge(s, c))
		}
		groups[s] = g
	}
	return decomp.MustNew(t.N(), groups)
}

// event is one scheduled request: client sends to server at virtual time
// due (in mean-think-time units from run start).
type event struct {
	due    float64
	client int
	server int
}

// clientState and serverState are a client's and a server's locks; their
// clocks are rows of the run's stamper. The lock order is always client
// before server, so the two lock classes cannot deadlock.
type (
	clientState struct{ mu sync.Mutex }
	serverState struct{ mu sync.Mutex }
)

// schedules builds each worker's event list: every client's arrivals in
// program order, merged across the worker's clients by due time. Merging
// keeps pacing honest (the worker sleeps toward the earliest due event)
// while client order is preserved because sort is stable and a client's
// own due times are nondecreasing.
func schedules(cfg Config) [][]event {
	skew := graph.NewSkew(cfg.Servers, cfg.ZipfTheta)
	perWorker := make([][]event, cfg.Workers)
	for c := 0; c < cfg.Clients; c++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*2654435761))
		w := c % cfg.Workers
		at := 0.0
		for i := 0; i < cfg.MessagesPerClient; i++ {
			switch cfg.Arrival {
			case ArrivalUniform:
				at += 2 * rng.Float64()
			default:
				at += rng.ExpFloat64()
			}
			perWorker[w] = append(perWorker[w], event{
				due:    at,
				client: cfg.Servers + c,
				server: skew.Pick(rng.Float64()),
			})
		}
	}
	for _, evs := range perWorker {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	}
	return perWorker
}

// Run drives the configured workload through the collector tree and
// returns the combined result. A failed verdict is a result, not an error;
// errors are configuration or spill failures.
func Run(cfg Config) (*Result, error) {
	if cfg.Servers <= 0 || cfg.Clients <= 0 || cfg.MessagesPerClient <= 0 {
		return nil, fmt.Errorf("load: need servers, clients, and messages per client, got %d/%d/%d",
			cfg.Servers, cfg.Clients, cfg.MessagesPerClient)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	topo := NewTopology(cfg.Servers, cfg.Clients)
	tree, err := node.NewCollectorTree(topo, cfg.Tree)
	if err != nil {
		return nil, err
	}

	st := core.NewStamper(topo)
	clients := make([]clientState, cfg.Clients)
	servers := make([]serverState, cfg.Servers)

	var offered, achieved *obs.Counter
	latency := obs.NewHistogram(obs.LatencyEdges)
	if cfg.Registry != nil {
		offered = cfg.Registry.Counter(obs.MetricLoadOffered)
		achieved = cfg.Registry.Counter(obs.MetricLoadAchieved)
		latency = cfg.Registry.Histogram(obs.MetricLoadLatencyNS, obs.LatencyEdges)
	}

	perWorker := schedules(cfg)
	total := int64(cfg.Clients) * int64(cfg.MessagesPerClient)
	offered.Add(total)

	// Pacing: virtual due times have mean-1 units; RatePerSec fixes the
	// wall length of one unit so the aggregate arrival rate matches.
	var unit time.Duration
	if cfg.RatePerSec > 0 {
		// Each of C clients offers MessagesPerClient arrivals with mean
		// spacing of one unit, so aggregate rate = Clients/unit.
		unit = time.Duration(float64(cfg.Clients) / cfg.RatePerSec * float64(time.Second))
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(evs []event) {
			defer wg.Done()
			for _, e := range evs {
				var due time.Time
				if unit > 0 {
					due = start.Add(time.Duration(e.due * float64(unit)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				} else {
					due = time.Now()
				}
				rendezvous(st, &clients[e.client-cfg.Servers], &servers[e.server], tree, e)
				latency.Observe(time.Since(due).Nanoseconds())
				achieved.Add(1)
			}
		}(perWorker[w])
	}
	wg.Wait()
	elapsed := time.Since(start)

	verdict, err := tree.Finish()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Servers:        cfg.Servers,
		Clients:        cfg.Clients,
		Messages:       total,
		Elapsed:        elapsed,
		OfferedPerSec:  cfg.RatePerSec,
		AchievedPerSec: float64(total) / elapsed.Seconds(),
		Latency:        latency.Snapshot(),
		Verdict:        verdict,
	}
	if cfg.Tree.KeepLogs {
		res.Logs = tree.Logs()
		res.Dec = topo.Decomposition()
	}
	return res, nil
}

// rendezvous performs one Figure 5 exchange between a client and a server
// and streams both halves into the tree. The client's lock is held across
// the whole rendezvous (its program order), the server's only across the
// stamp and its own record (its program order is its lock order); holding
// both is what lets workers share the stamper.
func rendezvous(st *core.Stamper, c *clientState, s *serverState, tree *node.CollectorTree, e event) {
	c.mu.Lock()
	s.mu.Lock()
	stamp, _ := st.StampMessage(e.client, e.server) // a client-server channel: never refused
	// The server's receive half is ingested under its lock so the tree
	// sees the server's records in the order its clock advanced.
	_ = tree.Ingest(e.server, core.Record{Kind: core.RecordRecv, Peer: e.client, Stamp: stamp})
	s.mu.Unlock()
	_ = tree.Ingest(e.client, core.Record{Kind: core.RecordSend, Peer: e.server, Stamp: stamp})
	c.mu.Unlock()
}
