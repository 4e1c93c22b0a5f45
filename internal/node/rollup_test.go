package node

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/vector"
)

// TestCollectClusterRollup runs a real 2-node cluster: node 1's METRICS
// report must land in node 0's rollup, with exact counter sums, merged
// histograms, and the node's own live registry (its /metrics view) equal to
// RunInfo.Rollup.
func TestCollectClusterRollup(t *testing.T) {
	leakCheck(t)
	g := graph.Path(2)
	dec := decomp.Best(g)
	transports := loopTransports(2)
	edges := []int64{10, 100}
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	for i, r := range regs {
		r.Counter("rollup_test_total").Add(int64(5 + 2*i)) // 5 and 7
		h := r.Histogram("rollup_test_lat", edges)
		h.Observe(int64(i))              // bucket <=10 on both nodes
		h.Observe(int64(1000 * (i + 1))) // overflow bucket on both
	}

	var collected *csp.Result
	var info0 *RunInfo
	var collectErr error
	results := make([]clusterResult, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Node: i, Placement: []int{0, 1}, Dec: dec, Obs: &obs.Obs{Metrics: regs[i]}}
			n, err := New(cfg, transports[i])
			if err != nil {
				results[i].err = err
				return
			}
			defer n.Close()
			info, err := n.Run(pingPong(10))
			results[i] = clusterResult{info: info, err: err}
			if err != nil {
				return
			}
			if i == 0 {
				info0 = info
				collected, collectErr = n.Collect(info, 10*time.Second)
			} else {
				results[i].err = n.SendReport(0, info)
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
	}
	if collectErr != nil {
		t.Fatal(collectErr)
	}
	if info0.Rollup == nil {
		t.Fatal("RunInfo.Rollup not populated by Collect")
	}
	roll := *info0.Rollup

	// Exact counter equality: the custom counter sums across nodes.
	if got := roll.Counters["rollup_test_total"]; got != 12 {
		t.Errorf("rollup_test_total = %d, want 12 (5 from node 0 + 7 from node 1)", got)
	}
	// Both nodes ran the same program halves, so the per-node frame counters
	// merged into a cluster total that covers every message twice (each
	// rendezvous is observed by its sender and its receiver).
	msgs := int64(collected.Trace.NumMessages())
	if got := roll.Counters[obs.MetricRendezvous]; got != 2*msgs {
		t.Errorf("%s = %d, want %d (both ends of %d messages)", obs.MetricRendezvous, got, 2*msgs, msgs)
	}

	// Merged histogram: bucket-wise sums of the two nodes' observations.
	h, ok := roll.Histograms["rollup_test_lat"]
	if !ok {
		t.Fatal("rollup_test_lat missing from the rollup")
	}
	if h.Count != 4 || h.Sum != 0+1+1000+2000 {
		t.Errorf("merged histogram count=%d sum=%d, want count=4 sum=3001", h.Count, h.Sum)
	}
	if want := []int64{2, 0, 2}; !reflect.DeepEqual(h.Counts, want) {
		t.Errorf("merged histogram buckets %v, want %v", h.Counts, want)
	}

	// The rollup was folded into node 0's live registry, so its /metrics
	// endpoint now serves the identical cluster view.
	if live := regs[0].Snapshot(); !reflect.DeepEqual(live, roll) {
		t.Errorf("node 0's live registry diverges from RunInfo.Rollup:\n%+v\n%+v", live, roll)
	}
}

// TestAsyncClusterRollup runs a 2-node recovery-mode cluster and pins the
// synchronizer's observability contract: the spurious-retransmit counter in
// the root rollup is exactly the sum over the nodes' registries, each
// per-peer RTT histogram lands in the rollup with precisely the sample
// count its owner's estimator accepted (so RunInfo p50/p99 and /metrics
// quantiles come from the same data), and the health gauges report every
// peer healthy after a clean run.
func TestAsyncClusterRollup(t *testing.T) {
	leakCheck(t)
	g := graph.Path(2)
	dec := decomp.Best(g)
	transports := loopTransports(2)
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	rec := &RecoveryConfig{
		OnPeerLoss:      PeerLossWait,
		ReconnectWindow: 5 * time.Second,
		Async:           &tssync.Config{RTOMin: 2 * time.Millisecond, Seed: 7},
	}
	var info0 *RunInfo
	var collectErr error
	results := make([]clusterResult, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Node: i, Placement: []int{0, 1}, Dec: dec,
				Recovery: rec, Obs: &obs.Obs{Metrics: regs[i]}}
			n, err := New(cfg, transports[i])
			if err != nil {
				results[i].err = err
				return
			}
			defer n.Close()
			info, err := n.Run(pingPong(10))
			results[i] = clusterResult{info: info, err: err}
			if err != nil {
				return
			}
			if i == 0 {
				info0 = info
				_, collectErr = n.Collect(info, 10*time.Second)
			} else {
				results[i].err = n.SendReport(0, info)
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
	}
	if collectErr != nil {
		t.Fatal(collectErr)
	}
	if info0.Rollup == nil {
		t.Fatal("RunInfo.Rollup not populated by Collect")
	}
	roll := *info0.Rollup

	info1 := results[1].info
	// Root rollup == Σ leaf registries, exactly — for the async counters too.
	if got, want := roll.Counters[obs.MetricSpuriousRetransmits], info0.Spurious+info1.Spurious; got != want {
		t.Errorf("%s = %d in the rollup, RunInfos sum to %d", obs.MetricSpuriousRetransmits, got, want)
	}
	if got, want := roll.Counters[obs.MetricSuspicions], info0.Suspicions+info1.Suspicions; got != want {
		t.Errorf("%s = %d in the rollup, RunInfos sum to %d", obs.MetricSuspicions, got, want)
	}
	// Each node owns one per-peer RTT histogram (node 0 watches peer 1 and
	// vice versa); the rollup must carry each with exactly the accepted
	// sample count its estimator reports.
	for i, info := range []*RunInfo{info0, info1} {
		peer := 1 - i
		st, ok := info.PeerRTT[peer]
		if !ok {
			t.Fatalf("node %d RunInfo has no RTT stats for peer %d", i, peer)
		}
		if st.Samples == 0 {
			t.Fatalf("node %d accepted no RTT samples over 20 rendezvous", i)
		}
		if st.SRTTNS <= 0 || st.RTONS <= 0 || st.P50NS <= 0 || st.P99NS <= 0 {
			t.Fatalf("node %d peer %d RTT stats not populated: %+v", i, peer, st)
		}
		h, ok := roll.Histograms[obs.PeerMetric(obs.MetricPeerRTTNS, peer)]
		if !ok {
			t.Fatalf("rollup lacks %s", obs.PeerMetric(obs.MetricPeerRTTNS, peer))
		}
		if h.Count != st.Samples {
			t.Errorf("rollup %s count = %d, node %d estimator accepted %d samples",
				obs.PeerMetric(obs.MetricPeerRTTNS, peer), h.Count, i, st.Samples)
		}
		if got := info.PeerHealth[peer]; got != "healthy" {
			t.Errorf("node %d sees peer %d as %q after a clean run", i, peer, got)
		}
		if gauge, ok := roll.Gauges[obs.PeerMetric(obs.MetricPeerHealth, peer)]; !ok || gauge != 0 {
			t.Errorf("rollup health gauge for peer %d = %d (present=%v), want 0/healthy", peer, gauge, ok)
		}
	}
	// The rollup was folded into node 0's live registry: /metrics serves the
	// same async totals.
	if live := regs[0].Snapshot(); !reflect.DeepEqual(live, roll) {
		t.Errorf("node 0's live registry diverges from RunInfo.Rollup")
	}
}

// TestFlightDumpRoundTrip pins the dump file format: write, read, equal —
// node ids, notes, and seqs included.
func TestFlightDumpRoundTrip(t *testing.T) {
	events := []obs.Event{
		{Node: 0, Proc: 0, Peer: 1, Seq: 0, Phase: obs.PhaseAdopt, Stamp: vector.V{1, 1}},
		{Node: 1, Proc: 1, Peer: 0, Seq: 0, Phase: obs.PhaseMerge, Stamp: vector.V{1, 1}},
		{Node: 1, Proc: 1, Peer: -1, Seq: 1, Phase: obs.PhaseInternal, Stamp: vector.V{1, 1}, Note: "checkpoint"},
		{Node: 0, Proc: 0, Peer: 1, Seq: 1, Phase: obs.PhaseSyn, Stamp: vector.V{2, 1}},
	}
	path := filepath.Join(t.TempDir(), "node.flight")
	if err := WriteFlightDump(path, events); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file survived the publish: %v", err)
	}
	got, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip:\n%+v\n%+v", got, events)
	}
}

// TestRunWritesFlightDumpAndReplays drives a 2-node cluster with the flight
// recorder on and no tracer: every node must publish its end-of-run dump,
// and the merged dumps must replay-verify against the sequential oracle,
// internal events included — the flight recorder is a faithful (bounded)
// record of the computation, not just a debugging convenience.
func TestRunWritesFlightDumpAndReplays(t *testing.T) {
	leakCheck(t)
	g := graph.Path(2)
	dec := decomp.Best(g)
	dir := t.TempDir()
	transports := loopTransports(2)
	programs := pingPong(5)
	ping := programs[0]
	programs[0] = func(p *Process) error {
		p.Internal("checkpoint")
		return ping(p)
	}
	results := make([]clusterResult, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{
				Node: i, Placement: []int{0, 1}, Dec: dec,
				FlightRecorder: 256,
				FlightDump:     filepath.Join(dir, "flight"+string(rune('0'+i))+".jsonl"),
			}
			n, err := New(cfg, transports[i])
			if err != nil {
				results[i].err = err
				return
			}
			defer n.Close()
			info, err := n.Run(programs)
			results[i] = clusterResult{info: info, err: err}
		}(i)
	}
	wg.Wait()
	var merged []obs.Event
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
		events, err := ReadFlightDump(filepath.Join(dir, "flight"+string(rune('0'+i))+".jsonl"))
		if err != nil {
			t.Fatalf("node %d dump: %v", i, err)
		}
		if len(events) == 0 {
			t.Fatalf("node %d published an empty dump", i)
		}
		merged = append(merged, events...)
	}
	res, err := csp.Reconstruct(dec, csp.LogsFromEvents(dec.N(), merged))
	if err != nil {
		t.Fatalf("reconstructing from flight dumps: %v", err)
	}
	if res.Trace.NumMessages() != 10 {
		t.Fatalf("dumps reconstruct %d messages, run carried 10", res.Trace.NumMessages())
	}
	if len(res.Internal) != 1 || res.Internal[0].Note != "checkpoint" {
		t.Fatalf("dumps reconstruct internal events %+v, run recorded one \"checkpoint\"", res.Internal)
	}
	if err := check.Verify(res, dec); err != nil {
		t.Fatal(err)
	}
}
