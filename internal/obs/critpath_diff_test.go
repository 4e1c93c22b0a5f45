package obs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/obs"
	"syncstamp/internal/trace"
)

// recordRun runs tr on the csp runtime over g and returns every event the
// run recorded: complete per-process sequences, as obs.New keeps them.
func recordRun(tb testing.TB, g *graph.Graph, tr *trace.Trace) []obs.Event {
	tb.Helper()
	o := obs.New()
	if _, err := csp.RunObs(decomp.Approximate(g), csp.ReplayPrograms(tr), 60*time.Second, o); err != nil {
		tb.Fatal(err)
	}
	return o.Recorder.Events()
}

// TestCriticalPathMatchesQuadraticWalk runs random computations with
// internal events before the first message, between messages and after the
// last, and requires CriticalPath's report to equal the quadratic reference
// walk's byte for byte.
func TestCriticalPathMatchesQuadraticWalk(t *testing.T) {
	runs := 300
	if testing.Short() {
		runs = 60
	}
	rng := rand.New(rand.NewSource(20))
	for r := 0; r < runs; r++ {
		g := graph.RandomConnected(2+rng.Intn(7), 0.5, rng)
		tr := &trace.Trace{N: g.N()}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			tr.MustAppend(trace.Internal(rng.Intn(g.N())))
		}
		body := trace.Generate(g, trace.GenOptions{Messages: 1 + rng.Intn(60), InternalProb: 0.3}, rng)
		for _, op := range body.Ops {
			tr.MustAppend(op)
		}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			tr.MustAppend(trace.Internal(rng.Intn(g.N())))
		}
		events := recordRun(t, g, tr)
		var got, want bytes.Buffer
		if err := obs.CriticalPath(events).WriteReport(&got); err != nil {
			t.Fatal(err)
		}
		if err := obs.CriticalPathQuadratic(events).WriteReport(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("run %d: report differs from the quadratic walk's:\n%s\n--- quadratic walk ---\n%s", r, got.String(), want.String())
		}
	}
}

// critSink keeps the benchmarked walk's result live.
var critSink *obs.CritPath

// BenchmarkCriticalPath times the analysis of one recorded run of random
// traffic on complete:8, against the quadratic reference walk at 4k
// messages.
func BenchmarkCriticalPath(b *testing.B) {
	for _, c := range []struct {
		name string
		msgs int
		walk func([]obs.Event) *obs.CritPath
	}{
		{"linear", 4000, obs.CriticalPath},
		{"linear", 16000, obs.CriticalPath},
		{"quadratic", 4000, obs.CriticalPathQuadratic},
	} {
		b.Run(fmt.Sprintf("%s/complete8-%dk", c.name, c.msgs/1000), func(b *testing.B) {
			g := graph.Complete(8)
			tr := trace.Generate(g, trace.GenOptions{Messages: c.msgs}, rand.New(rand.NewSource(8)))
			events := recordRun(b, g, tr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				critSink = c.walk(events)
			}
		})
	}
}
