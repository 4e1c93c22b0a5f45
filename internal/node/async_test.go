package node

import (
	"testing"
	"time"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	tssync "syncstamp/internal/sync"
)

// TestAsyncAbortSurvivesSuspicion pins what PeerLossAbort means under the
// async synchronizer: it fails the run when a data connection dies, not
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
