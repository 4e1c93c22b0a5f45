package obs_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/obs"
	"syncstamp/internal/trace"
)

// recordRun runs tr on the csp runtime over g and returns the run's
// decomposition and every event it recorded: complete per-process
// sequences, as obs.New keeps them.
func recordRun(tb testing.TB, g *graph.Graph, tr *trace.Trace) (*decomp.Decomposition, []obs.Event) {
	tb.Helper()
	dec := decomp.Approximate(g)
	o := obs.New()
	if _, err := csp.RunObs(dec, csp.ReplayPrograms(tr), 60*time.Second, o); err != nil {
		tb.Fatal(err)
	}
	return dec, o.Recorder.Events()
}

// criticalPath reconstructs the run from its events, as tsanalyze
// critical-path does, and walks it.
func criticalPath(tb testing.TB, dec *decomp.Decomposition, events []obs.Event) *obs.CritPath {
	tb.Helper()
	res, err := csp.Reconstruct(dec, csp.LogsFromEvents(dec.N(), events))
	if err != nil {
		tb.Fatal(err)
	}
	return obs.CriticalPath(res.Trace, res.Stamps, dec.D())
}

// randomRun draws a random computation over a random connected topology,
// with internal events before the first message, between messages and
// after the last.
func randomRun(rng *rand.Rand) (*graph.Graph, *trace.Trace) {
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
	return g, tr
}

// TestCriticalPathMatchesQuadraticWalk runs random computations, reconstructs
// each run from its events, and requires the walk's report to equal the
// quadratic event walk's byte for byte.
func TestCriticalPathMatchesQuadraticWalk(t *testing.T) {
	runs := 300
	if testing.Short() {
		runs = 60
	}
	rng := rand.New(rand.NewSource(20))
	for r := 0; r < runs; r++ {
		g, tr := randomRun(rng)
		dec, events := recordRun(t, g, tr)
		var got, want bytes.Buffer
		if err := criticalPath(t, dec, events).WriteReport(&got); err != nil {
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

// TestStampRanksMatchKahn: the Chrome ranks, a sort by (stamp sum,
// rendering), equal Kahn's topological sort on vector.Less with that
// tie-break, on random runs with internal events.
func TestStampRanksMatchKahn(t *testing.T) {
	runs := 300
	if testing.Short() {
		runs = 60
	}
	rng := rand.New(rand.NewSource(21))
	for r := 0; r < runs; r++ {
		g, tr := randomRun(rng)
		_, events := recordRun(t, g, tr)
		got, want := obs.StampRanks(events), obs.StampRanksKahn(events)
		if !maps.Equal(got, want) {
			t.Fatalf("run %d: ranks %v, Kahn's %v", r, got, want)
		}
	}
}

// critSink and rankSink keep the benchmarked results live.
var (
	critSink *obs.CritPath
	rankSink map[string]int
)

// recordTraffic records one run of random traffic on complete:8.
func recordTraffic(b *testing.B, msgs int) (*decomp.Decomposition, []obs.Event) {
	b.Helper()
	g := graph.Complete(8)
	return recordRun(b, g, trace.Generate(g, trace.GenOptions{Messages: msgs}, rand.New(rand.NewSource(8))))
}

// BenchmarkCriticalPath times the analysis of one recorded run of random
// traffic on complete:8: the reconstruction from the events and the walk.
func BenchmarkCriticalPath(b *testing.B) {
	for _, msgs := range []int{4000, 16000} {
		b.Run(fmt.Sprintf("complete8-%dk", msgs/1000), func(b *testing.B) {
			dec, events := recordTraffic(b, msgs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				critSink = criticalPath(b, dec, events)
			}
		})
	}
}

// BenchmarkStampRanks times the Chrome ranking of one recorded run on
// complete:8, against Kahn's algorithm at 4k messages.
func BenchmarkStampRanks(b *testing.B) {
	for _, c := range []struct {
		name  string
		msgs  int
		ranks func([]obs.Event) map[string]int
	}{
		{"sort", 4000, obs.StampRanks},
		{"sort", 16000, obs.StampRanks},
		{"kahn", 4000, obs.StampRanksKahn},
	} {
		b.Run(fmt.Sprintf("%s/complete8-%dk", c.name, c.msgs/1000), func(b *testing.B) {
			_, events := recordTraffic(b, c.msgs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rankSink = c.ranks(events)
			}
		})
	}
}
