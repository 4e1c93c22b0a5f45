package csp

import (
	"bytes"
	"testing"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/obs"
	"syncstamp/internal/vector"
)

// obsTestPrograms is a fixed 3-process computation on a path topology with
// both ordered and concurrent rendezvous plus an internal event.
func obsTestPrograms() (*decomp.Decomposition, []func(*Process) error) {
	dec := decomp.Approximate(graph.Path(3))
	return dec, []func(*Process) error{
		func(p *Process) error {
			if _, err := p.Send(1, "a"); err != nil {
				return err
			}
			_, err := p.RecvFrom(1)
			return err
		},
		func(p *Process) error {
			if _, err := p.RecvFrom(0); err != nil {
				return err
			}
			if _, err := p.RecvFrom(2); err != nil {
				return err
			}
			p.Internal("mid")
			_, err := p.Send(0, "b")
			return err
		},
		func(p *Process) error {
			_, err := p.Send(1, "c")
			return err
		},
	}
}

// TestRunObsDeterministicJSONL pins the tentpole's export contract at the
// runtime level: two separate runs of the same computation (fresh systems,
// fresh goroutine interleavings, fake clocks) produce byte-identical JSONL.
func TestRunObsDeterministicJSONL(t *testing.T) {
	export := func() []byte {
		t.Helper()
		dec, programs := obsTestPrograms()
		o := obs.New()
		o.Clock = &obs.Manual{} // no wall time anywhere near the run
		if _, err := RunObs(dec, programs, testTimeout, o); err != nil {
			t.Fatal(err)
		}
		meta, err := obs.NewMeta(-1, dec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, meta, o.Recorder.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatalf("JSONL differs across two runs:\n%s\n---\n%s", a, b)
	}
}

// TestRunObsMetricsAndOracle checks the metrics a run accumulates and that
// LogsFromEvents closes the loop: the trace alone reconstructs the same
// computation with the same stamps.
func TestRunObsMetricsAndOracle(t *testing.T) {
	dec, programs := obsTestPrograms()
	o := obs.New()
	o.Clock = &obs.Manual{}
	res, err := RunObs(dec, programs, testTimeout, o)
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	// 3 messages, each counted once per participating side.
	if got := snap.Counters[obs.MetricRendezvous]; got != 6 {
		t.Errorf("%s = %d, want 6", obs.MetricRendezvous, got)
	}
	if got := snap.Counters[obs.MetricInternalEvents]; got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricInternalEvents, got)
	}
	if got := snap.Histograms[obs.MetricCausalTicks].Count; got != 3 {
		t.Errorf("%s observations = %d, want 3 (one per send)", obs.MetricCausalTicks, got)
	}
	// Process 1 participates in all 3 rendezvous.
	if got := snap.Counters[obs.ProcMetric(obs.MetricRendezvous, 1)]; got != 3 {
		t.Errorf("per-proc counter = %d, want 3", got)
	}

	events := o.Recorder.Events()
	rebuilt, err := Reconstruct(dec, LogsFromEvents(dec.N(), events))
	if err != nil {
		t.Fatalf("reconstructing from trace events: %v", err)
	}
	if rebuilt.Trace.NumMessages() != res.Trace.NumMessages() {
		t.Fatalf("trace rebuild has %d messages, run had %d", rebuilt.Trace.NumMessages(), res.Trace.NumMessages())
	}
	if len(rebuilt.Stamps) != len(res.Stamps) {
		t.Fatalf("trace rebuild has %d stamps, run had %d", len(rebuilt.Stamps), len(res.Stamps))
	}
	for i := range res.Stamps {
		if !vector.Eq(rebuilt.Stamps[i], res.Stamps[i]) {
			t.Errorf("stamp %d: rebuilt %v, run %v", i, rebuilt.Stamps[i], res.Stamps[i])
		}
	}
	if len(rebuilt.Internal) != 1 || rebuilt.Internal[0].Note != "mid" {
		t.Errorf("internal events rebuilt: %+v", rebuilt.Internal)
	}
}

// TestAckCarriesMergedStamp pins csp's ACK to node's: the receiver merges
// first and acknowledges with the agreed stamp, which the sender adopts, so
// every PhaseAck event repeats its process's preceding PhaseMerge stamp and
// every PhaseAdopt stamp is one a receiver merged.
func TestAckCarriesMergedStamp(t *testing.T) {
	dec, programs := obsTestPrograms()
	o := obs.New()
	o.Clock = &obs.Manual{}
	if _, err := RunObs(dec, programs, testTimeout, o); err != nil {
		t.Fatal(err)
	}
	var merged []vector.V
	var last vector.V // the current process's latest merge stamp
	acks, adopts := 0, 0
	events := o.Recorder.Events() // (proc, seq) order
	for i, e := range events {
		if i > 0 && e.Proc != events[i-1].Proc {
			last = nil
		}
		switch e.Phase {
		case obs.PhaseMerge:
			last = e.Stamp
			merged = append(merged, e.Stamp)
		case obs.PhaseAck:
			acks++
			if last == nil || !vector.Eq(e.Stamp, last) {
				t.Fatalf("process %d acked %d with %v; its preceding merge stamp is %v", e.Proc, e.Peer, e.Stamp, last)
			}
		}
	}
	for _, e := range events {
		if e.Phase != obs.PhaseAdopt {
			continue
		}
		adopts++
		found := false
		for _, m := range merged {
			found = found || vector.Eq(e.Stamp, m)
		}
		if !found {
			t.Fatalf("process %d adopted %v, which no receiver merged", e.Proc, e.Stamp)
		}
	}
	if acks != 3 || adopts != 3 {
		t.Fatalf("%d acks and %d adopts, want 3 of each (one per message)", acks, adopts)
	}
}

// TestObsDisabledHookAllocs pins the acceptance criterion that a system
// without SetObs pays zero allocations for the instrumentation added to the
// rendezvous paths (the exact call sequence Send/complete/Recv execute).
func TestObsDisabledHookAllocs(t *testing.T) {
	sys := NewSystem(decomp.Approximate(graph.Path(2)))
	stamp := vector.V{1, 2}
	allocs := testing.AllocsPerRun(200, func() {
		sys.obsv.Rendezvous(-1, 0, 1, obs.PhaseSyn, stamp)
		t0 := sys.obsv.Now()
		sys.ins.SendBlockNS.Observe(sys.obsv.Now() - t0)
		sys.ins.SynAckNS.Observe(0)
		sys.ins.RecvBlockNS.Observe(0)
		sys.obsv.Rendezvous(-1, 0, 1, obs.PhaseAdopt, stamp)
		sys.ins.Rendezvous.Add(1)
		sys.ins.Proc(0).Add(1)
		sys.ins.InternalEvents.Add(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs hooks allocated %v times per run, want 0", allocs)
	}
}
