package node

import (
	"testing"
	"time"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
)

// TestRecoveryRunsTheSynchronizer pins that the synchronizer is not opt-in:
// a RecoveryConfig with no Async tunables still paces retransmission through
// it, so the run reports every peer's RTT estimate and health state.
func TestRecoveryRunsTheSynchronizer(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(2))
	res, results, err := runCluster(dec, []int{0, 1}, loopTransports(2), pingPong(5), Config{Recovery: &RecoveryConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
		peer := 1 - i
		if st, ok := r.info.PeerRTT[peer]; !ok || st.Samples == 0 {
			t.Fatalf("node %d reports no RTT samples for peer %d: %+v", i, peer, r.info.PeerRTT)
		}
		if got := r.info.PeerHealth[peer]; got != "healthy" {
			t.Fatalf("node %d sees peer %d as %q, want healthy", i, peer, got)
		}
	}
	verifyAgainstSequential(t, res, dec, 10)
}

// TestAsyncAbortSurvivesSuspicion pins what PeerLossAbort means under the
// synchronizer: it fails the run when a data connection dies, not
// when a live peer is merely slow. The receiver sleeps long enough for the
// sender's tight RTO to expire past the suspect threshold; the peer must
// heal when the rendezvous completes, and the run must verify.
func TestAsyncAbortSurvivesSuspicion(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(2))
	rec := &RecoveryConfig{
		OnPeerLoss: PeerLossAbort,
		Async:      &tssync.Config{RTTInit: time.Millisecond, RTOMin: time.Millisecond, RTOMax: 2 * time.Millisecond},
	}
	programs := map[int]func(*Process) error{
		0: func(p *Process) error {
			_, err := p.Send(1)
			return err
		},
		1: func(p *Process) error {
			time.Sleep(100 * time.Millisecond)
			_, err := p.RecvFrom(0)
			return err
		},
	}
	res, results, err := runCluster(dec, []int{0, 1}, loopTransports(2), programs, Config{Recovery: rec})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
	}
	verifyAgainstSequential(t, res, dec, 1)
	if results[0].info.Suspicions == 0 {
		t.Fatal("the sender never suspected the sleeping receiver; the test no longer exercises suspicion")
	}
}

// TestExclusionIsTerminal pins that exclusion is the node's one record of
// a removed peer: once excludePeer(1) ran, neither timeouts toward node 1
// (enough to cross the suspect threshold) nor a frame from it move its
// reported health, its peer_health gauge or the suspicion count.
func TestExclusionIsTerminal(t *testing.T) {
	leakCheck(t)
	o := obs.New()
	n, err := New(Config{Node: 0, Placement: []int{0, 1}, Dec: decomp.Best(graph.Path(2)), Obs: o,
		Recovery: &RecoveryConfig{OnPeerLoss: PeerLossExclude}}, NewLoop(2).Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	gauge := o.Registry().Gauge(obs.PeerMetric(obs.MetricPeerHealth, 1))
	n.noteTimeout(1)
	n.noteTimeout(1) // degraded, two short of suspect
	if got := gauge.Value(); got != int64(tssync.Degraded) {
		t.Fatalf("gauge = %d before the exclusion, want %d (degraded)", got, tssync.Degraded)
	}
	n.excludePeer(1)
	for i := 0; i < 5; i++ {
		n.noteTimeout(1)
	}
	n.noteAlive(1)
	var info RunInfo
	n.asyncInfo(&info)
	if got := info.PeerHealth[1]; got != "excluded" {
		t.Errorf("PeerHealth[1] = %q, want excluded", got)
	}
	if got := gauge.Value(); got != int64(tssync.Excluded) {
		t.Errorf("gauge = %d, want %d (excluded)", got, tssync.Excluded)
	}
	if info.Suspicions != 0 {
		t.Errorf("Suspicions = %d, want 0: the timeouts came after the exclusion", info.Suspicions)
	}
}
