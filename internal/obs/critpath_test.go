package obs

import (
	"bytes"
	"strings"
	"testing"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/trace"
)

// walk stamps the computation ops with the Figure 5 code over the topology
// its messages use, then walks it.
func walk(t *testing.T, n int, ops ...trace.Op) *CritPath {
	t.Helper()
	tr := &trace.Trace{N: n}
	for _, op := range ops {
		tr.MustAppend(op)
	}
	dec := decomp.Approximate(tr.Topology())
	stamps, err := core.StampTrace(tr, dec)
	if err != nil {
		t.Fatal(err)
	}
	return CriticalPath(tr, stamps, dec.D())
}

func report(t *testing.T, cp *CritPath) string {
	t.Helper()
	var b bytes.Buffer
	if err := cp.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// critSample is a three-process computation: m1 P0→P1 at (1), m2 P1→P0 at
// (2), and an internal event on P2, which never communicates and so stays
// off the critical path.
var critSample = []trace.Op{trace.Internal(2), trace.Message(0, 1), trace.Message(1, 0)}

func TestCriticalPathLengthAndSlack(t *testing.T) {
	cp := walk(t, 3, critSample...)
	// Length is the maximum stamp sum any message reached.
	if cp.Length != 2 {
		t.Fatalf("length %d, want 2", cp.Length)
	}
	// The end-to-end length dominates every process's own causal-tick span.
	for _, p := range cp.Procs {
		if p.EndSum > cp.Length {
			t.Errorf("P%d end-sum %d exceeds path length %d", p.Proc, p.EndSum, cp.Length)
		}
		if p.Slack != cp.Length-p.EndSum {
			t.Errorf("P%d slack %d, want %d", p.Proc, p.Slack, cp.Length-p.EndSum)
		}
	}
	if len(cp.Procs) != 3 {
		t.Fatalf("proc table %+v, want 3 processes", cp.Procs)
	}
	if cp.Procs[0].Slack != 0 || cp.Procs[1].Slack != 0 {
		t.Errorf("P0/P1 end on the path, want slack 0: %+v", cp.Procs[:2])
	}
	if cp.Procs[2].EndSum != 0 || cp.Procs[2].Slack != 2 {
		t.Errorf("P2 %+v, want end-sum 0 and slack 2", cp.Procs[2])
	}
	// The path is the two messages; P2's internal event precedes neither.
	if len(cp.Steps) != 2 || cp.Steps[0].Phase != PhaseAdopt {
		t.Fatalf("steps %+v, want the two messages", cp.Steps)
	}
	// The step ticks telescope to the full length.
	var sum int64
	for _, s := range cp.Steps {
		sum += s.Ticks
	}
	if sum != cp.Length {
		t.Fatalf("step ticks sum to %d, want %d", sum, cp.Length)
	}
	// The last step is m2, the sink rendezvous P1→P0.
	last := cp.Steps[len(cp.Steps)-1]
	if last.Phase != PhaseAdopt || last.Proc != 1 || last.Peer != 0 {
		t.Fatalf("sink step %+v, want m P1→P0", last)
	}
	// Blame table: both links carried one message and one path tick; the
	// one ending on the sink ranks first.
	if len(cp.Links) != 2 {
		t.Fatalf("links %+v, want 2", cp.Links)
	}
	if cp.Links[0].From != 1 || cp.Links[0].To != 0 || cp.Links[0].Slack != 0 {
		t.Errorf("top blame %+v, want P1→P0 with slack 0", cp.Links[0])
	}
	if cp.Links[1].PathTicks != 1 || cp.Links[1].Slack != 1 {
		t.Errorf("second blame %+v, want 1 path tick and slack 1", cp.Links[1])
	}
}

// TestCriticalPathDeterministic: the analysis and its report depend only on
// the computation, not on the linearization the reconstruction chose.
func TestCriticalPathDeterministic(t *testing.T) {
	for _, c := range []struct {
		n    int
		a, b []trace.Op
	}{
		{3, critSample, []trace.Op{trace.Message(0, 1), trace.Message(1, 0), trace.Internal(2)}},
		{4,
			[]trace.Op{trace.Message(0, 1), trace.Message(2, 3), trace.Internal(0), trace.Message(1, 2), trace.Message(0, 1)},
			[]trace.Op{trace.Message(2, 3), trace.Message(0, 1), trace.Message(1, 2), trace.Internal(0), trace.Message(0, 1)}},
	} {
		got, want := report(t, walk(t, c.n, c.b...)), report(t, walk(t, c.n, c.a...))
		if got != want {
			t.Fatalf("report not byte-identical across linearizations:\n%s\n---\n%s", want, got)
		}
	}
	out := report(t, walk(t, 3, critSample...))
	for _, want := range []string{
		"critical path: 2 causal ticks end-to-end over 2 steps",
		"m P0→P1",
		"m P1→P0",
		"per-process slack:",
		"rendezvous-link blame",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestCriticalPathNamesOnlyPrecedingWork pins the two rules for work off
// the path: the path opens with an internal step only when a participant
// of its first message recorded an internal event before that message (the
// smaller such id), and the slack table lists every process with an event.
func TestCriticalPathNamesOnlyPrecedingWork(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		ops  []trace.Op
		want []string
	}{
		{"non-participant's internal", 3,
			[]trace.Op{trace.Internal(0), trace.Message(1, 2), trace.Message(2, 1)},
			[]string{"over 2 steps", "    1  +1    m P1→P2", "  P0     0         2\n"}},
		{"both participants' internals", 3,
			[]trace.Op{trace.Internal(0), trace.Internal(2), trace.Internal(1), trace.Message(1, 2)},
			[]string{"over 2 steps", "    1  +0    internal P1      (0)", "  P0     0         1\n"}},
		{"receiver's internal", 3,
			[]trace.Op{trace.Internal(0), trace.Internal(2), trace.Message(1, 2)},
			[]string{"    1  +0    internal P2      (0)"}},
		{"no messages", 3,
			[]trace.Op{trace.Internal(2), trace.Internal(1)},
			[]string{"0 causal ticks end-to-end over 1 steps", "    1  +0    internal P1      ()", "  P2     0         0\n"}},
	} {
		out := report(t, walk(t, c.n, c.ops...))
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: report missing %q:\n%s", c.name, want, out)
			}
		}
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	cp := CriticalPath(&trace.Trace{}, nil, 0)
	if cp.Length != 0 || len(cp.Steps) != 0 || len(cp.Procs) != 0 || len(cp.Links) != 0 {
		t.Fatalf("empty analysis: %+v", cp)
	}
	if out := report(t, cp); !strings.Contains(out, "critical path: 0 causal ticks end-to-end over 0 steps") {
		t.Fatalf("empty report:\n%s", out)
	}
}
