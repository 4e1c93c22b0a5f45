package node

import (
	"testing"
	"time"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
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
