package load

import (
	"testing"

	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/node"
	"syncstamp/internal/obs"
	"syncstamp/internal/vector"
)

// controlCrossCheck replays a KeepLogs run against the sequential replay
// oracle — the whole-trace ground truth the streaming verdict must agree
// with.
func controlCrossCheck(t *testing.T, topo *Topology, res *Result) {
	t.Helper()
	dec := topo.Decomposition()
	r, err := core.Reconstruct(dec, res.Logs)
	if err != nil {
		t.Fatalf("reconstruct: %v", err)
	}
	if int64(r.Trace.NumMessages()) != res.Messages {
		t.Fatalf("reconstructed %d messages, drove %d", r.Trace.NumMessages(), res.Messages)
	}
	if err := check.Verify(r, dec); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

// TestLoadControlRun is the control experiment: a small deterministic run
// whose streaming verdict must agree with the whole-trace replay, with
// spill engaged and bounded resident memory.
func TestLoadControlRun(t *testing.T) {
	cfg := Config{
		Servers:           4,
		Clients:           50,
		MessagesPerClient: 6,
		ZipfTheta:         0.8,
		Seed:              42,
		Workers:           1,
		Tree: node.TreeConfig{
			Leaves:         3,
			SpillDir:       t.TempDir(),
			SegmentRecords: 16,
			KeepLogs:       true,
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.OK {
		t.Fatalf("clean run rejected: %v", res.Verdict.Problems)
	}
	if res.Verdict.Messages != 300 {
		t.Fatalf("verdict counts %d messages, drove 300", res.Verdict.Messages)
	}
	if res.Verdict.SegmentsSpilled == 0 {
		t.Fatal("spill never engaged")
	}
	if res.Verdict.MaxResident > 16 {
		t.Fatalf("a leaf held %d records resident, segment size is 16", res.Verdict.MaxResident)
	}
	controlCrossCheck(t, NewTopology(cfg.Servers, cfg.Clients), res)
}

// TestLoadDeterministic: one worker and one seed must reproduce the run
// record for record.
func TestLoadDeterministic(t *testing.T) {
	cfg := Config{
		Servers: 3, Clients: 20, MessagesPerClient: 5,
		ZipfTheta: 1, Seed: 7, Workers: 1,
		Tree: node.TreeConfig{KeepLogs: true},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Logs) != len(b.Logs) {
		t.Fatalf("log shapes differ: %d vs %d", len(a.Logs), len(b.Logs))
	}
	for p := range a.Logs {
		if len(a.Logs[p]) != len(b.Logs[p]) {
			t.Fatalf("process %d: %d vs %d records", p, len(a.Logs[p]), len(b.Logs[p]))
		}
		for i := range a.Logs[p] {
			x, y := a.Logs[p][i], b.Logs[p][i]
			if x.Kind != y.Kind || x.Peer != y.Peer || !vector.Eq(x.Stamp, y.Stamp) {
				t.Fatalf("process %d record %d: %+v vs %+v", p, i, x, y)
			}
		}
	}
}

// TestLoadConcurrentWorkers drives the same workload with a worker pool:
// interleavings vary, but every stamp must still verify. The workers share
// one core.Stamper, so the control cross-check holds the stamper's
// concurrent use (disjoint pairs under the client and server locks) to the
// sequential replay of whatever interleaving the run took.
func TestLoadConcurrentWorkers(t *testing.T) {
	cfg := Config{
		Servers: 4, Clients: 40, MessagesPerClient: 10,
		ZipfTheta: 0.5, Seed: 3, Workers: 8,
		Tree: node.TreeConfig{Leaves: 4, KeepLogs: true},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.OK {
		t.Fatalf("concurrent run rejected: %v", res.Verdict.Problems)
	}
	if res.Verdict.Messages != 400 {
		t.Fatalf("verdict counts %d messages, drove 400", res.Verdict.Messages)
	}
	controlCrossCheck(t, NewTopology(cfg.Servers, cfg.Clients), res)
}

// TestLoadPacedRun: a paced run must finish near its offered horizon and
// record a latency sample per request.
func TestLoadPacedRun(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Run(Config{
		Servers: 2, Clients: 10, MessagesPerClient: 4,
		RatePerSec: 2000, Arrival: ArrivalUniform, Seed: 9, Workers: 2,
		Tree:     node.TreeConfig{Leaves: 2},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.OK {
		t.Fatalf("paced run rejected: %v", res.Verdict.Problems)
	}
	if res.OfferedPerSec != 2000 {
		t.Fatalf("offered rate %v, configured 2000", res.OfferedPerSec)
	}
	if res.Latency.Count != 40 {
		t.Fatalf("latency histogram holds %d samples, drove 40", res.Latency.Count)
	}
	if got := reg.Counter(obs.MetricLoadOffered).Value(); got != 40 {
		t.Fatalf("offered counter %d, want 40", got)
	}
	if got := reg.Counter(obs.MetricLoadAchieved).Value(); got != 40 {
		t.Fatalf("achieved counter %d, want 40", got)
	}
	if res.P99() < res.P50() {
		t.Fatalf("p99 %d below p50 %d", res.P99(), res.P50())
	}
}

// TestLoadGnpControl: the random-topology engine must verify and agree
// with the whole-trace replay under its own decomposition.
func TestLoadGnpControl(t *testing.T) {
	res, err := RunGnp(GnpConfig{
		N: 12, P: 0.3, Messages: 400, Seed: 5,
		Tree: node.TreeConfig{Leaves: 3, KeepLogs: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.OK {
		t.Fatalf("gnp run rejected: %v", res.Verdict.Problems)
	}
	if res.Verdict.Messages != 400 {
		t.Fatalf("verdict counts %d messages, drove 400", res.Verdict.Messages)
	}
}

// TestLoadTopologyGroups pins the analytic topology to the modulo-free
// star mapping the driver depends on.
func TestLoadTopologyGroups(t *testing.T) {
	topo := NewTopology(3, 5)
	if topo.N() != 8 || topo.D() != 3 {
		t.Fatalf("N=%d D=%d, want 8 and 3", topo.N(), topo.D())
	}
	for s := 0; s < 3; s++ {
		for c := 3; c < 8; c++ {
			if g, ok := topo.GroupOf(c, s); !ok || g != s {
				t.Fatalf("GroupOf(%d,%d) = %d,%v, want %d", c, s, g, ok, s)
			}
		}
		if topo.StarRoot(s) != s {
			t.Fatalf("StarRoot(%d) = %d", s, topo.StarRoot(s))
		}
	}
	if _, ok := topo.GroupOf(0, 1); ok {
		t.Fatal("server-server channel claimed by the analytic topology")
	}
	if _, ok := topo.GroupOf(3, 4); ok {
		t.Fatal("client-client channel claimed by the analytic topology")
	}
	// The materialized control decomposition agrees everywhere.
	dec := topo.Decomposition()
	if dec.D() != topo.D() || dec.N() != topo.N() {
		t.Fatalf("control decomposition %d/%d, analytic %d/%d", dec.N(), dec.D(), topo.N(), topo.D())
	}
	for s := 0; s < 3; s++ {
		for c := 3; c < 8; c++ {
			g, ok := dec.GroupOf(s, c)
			ag, aok := topo.GroupOf(s, c)
			if g != ag || ok != aok {
				t.Fatalf("channel (%d,%d): control %d,%v analytic %d,%v", s, c, g, ok, ag, aok)
			}
		}
	}
}

// TestLoadHundredThousandClients is the scale acceptance run: 100k clients
// through a 2-level tree with spill engaged on every shard, memory bounded
// by the segment size.
func TestLoadHundredThousandClients(t *testing.T) {
	if testing.Short() {
		t.Skip("scale run skipped in -short")
	}
	dir := t.TempDir()
	const leaves = 4
	res, err := Run(Config{
		Servers:           16,
		Clients:           100_000,
		MessagesPerClient: 1,
		ZipfTheta:         0.9,
		Seed:              1,
		Workers:           4,
		Tree: node.TreeConfig{
			Leaves:         leaves,
			SpillDir:       dir,
			SegmentRecords: 4096,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.OK {
		t.Fatalf("scale run rejected: %v", res.Verdict.Problems)
	}
	if res.Verdict.Messages != 100_000 {
		t.Fatalf("verdict counts %d messages, drove 100000", res.Verdict.Messages)
	}
	if res.Verdict.Shards != leaves {
		t.Fatalf("%d shards verified, tree has %d", res.Verdict.Shards, leaves)
	}
	if res.Verdict.SegmentsSpilled < leaves {
		t.Fatalf("only %d segments spilled across %d leaves", res.Verdict.SegmentsSpilled, leaves)
	}
	if res.Verdict.MaxResident > 4096 {
		t.Fatalf("a leaf held %d records resident, segment size is 4096", res.Verdict.MaxResident)
	}
}
