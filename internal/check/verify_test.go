package check_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/trace"
)

// cleanRun replays a random computation with internal events on the csp
// runtime.
func cleanRun(t *testing.T) (*csp.Result, *decomp.Decomposition) {
	t.Helper()
	g := graph.Complete(4)
	dec := decomp.Best(g)
	tr := trace.Generate(g, trace.GenOptions{Messages: 30, InternalProb: 0.2}, rand.New(rand.NewSource(4)))
	res, err := csp.Run(dec, csp.ReplayPrograms(tr), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return res, dec
}

func TestVerifyAcceptsCleanRun(t *testing.T) {
	res, dec := cleanRun(t)
	if err := check.Verify(res, dec); err != nil {
		t.Fatal(err)
	}
}

func TestReplayRejectsBumpedComponent(t *testing.T) {
	res, dec := cleanRun(t)
	res.Stamps[7] = res.Stamps[7].Clone()
	res.Stamps[7][0]++
	if err := check.Replay(res, dec); err == nil || !strings.Contains(err.Error(), "message 7") {
		t.Fatalf("Replay of a run with message 7's stamp bumped: %v", err)
	}
	if err := check.Verify(res, dec); err == nil {
		t.Fatal("Verify accepted a run with a bumped stamp")
	}
}

func TestReplayRejectsMissingStamp(t *testing.T) {
	res, dec := cleanRun(t)
	res.Stamps = res.Stamps[:len(res.Stamps)-1]
	if err := check.Replay(res, dec); err == nil {
		t.Fatal("Replay accepted a run with one stamp missing")
	}
	if err := check.Verify(res, dec); err == nil {
		t.Fatal("Verify accepted a run with one stamp missing")
	}
}
