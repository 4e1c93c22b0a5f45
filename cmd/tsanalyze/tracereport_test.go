package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/node"
	"syncstamp/internal/obs"
	"syncstamp/internal/vector"
)

// writeObsTrace runs a small in-process computation under tracing and
// writes its event file to a temp file.
func writeObsTrace(t *testing.T) string {
	t.Helper()
	dec, events := obsTraceEvents(t)
	path := filepath.Join(t.TempDir(), "run.events")
	if err := node.WriteFlightDump(path, node.DumpMeta{Node: -1, Dec: dec}, events); err != nil {
		t.Fatal(err)
	}
	return path
}

// obsTraceEvents runs a small in-process computation under tracing and
// returns its decomposition and recorded events.
func obsTraceEvents(t *testing.T) (*decomp.Decomposition, []obs.Event) {
	t.Helper()
	dec := decomp.Approximate(graph.Path(3))
	programs := []func(*csp.Process) error{
		func(p *csp.Process) error {
			if _, err := p.Send(1, "a"); err != nil {
				return err
			}
			_, err := p.RecvFrom(1)
			return err
		},
		func(p *csp.Process) error {
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
		func(p *csp.Process) error {
			_, err := p.Send(1, "c")
			return err
		},
	}
	o := obs.New()
	o.Clock = &obs.Manual{}
	if _, err := csp.RunObs(dec, programs, 10*time.Second, o); err != nil {
		t.Fatal(err)
	}
	return dec, o.Recorder.Events()
}

func TestTraceReport(t *testing.T) {
	path := writeObsTrace(t)
	chrome := filepath.Join(t.TempDir(), "run.chrome.json")
	code, out, errOut := runTool(t, nil, "trace-report", "-chrome", chrome, path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{
		"trace-report: 1 file(s), nodes [-1], N=3 processes",
		"3 messages, 1 internal events",
		"verified: span stamps match the sequential replay",
		"causal latency (ticks): 3 sends",
		"wire traffic: none recorded (in-process run)",
		"chrome trace written to",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "traceEvents") {
		t.Fatalf("chrome export malformed:\n%s", data)
	}
}

// TestTraceReportRejectsBadStamps pins the oracle: a trace whose recorded
// stamps disagree with the sequential replay must fail verification.
func TestTraceReportRejectsBadStamps(t *testing.T) {
	dec := decomp.Approximate(graph.Path(2))
	events := []obs.Event{
		{Proc: 0, Peer: 1, Seq: 0, Phase: obs.PhaseSyn, Stamp: vector.V{0}},
		{Proc: 0, Peer: 1, Seq: 1, Phase: obs.PhaseAdopt, Stamp: vector.V{5}},
		{Proc: 1, Peer: 0, Seq: 0, Phase: obs.PhaseMerge, Stamp: vector.V{5}},
		{Proc: 1, Peer: 0, Seq: 1, Phase: obs.PhaseAck, Stamp: vector.V{5}},
	}
	path := filepath.Join(t.TempDir(), "bad.events")
	if err := node.WriteFlightDump(path, node.DumpMeta{Node: 0, Dec: dec}, events); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runTool(t, nil, "trace-report", path)
	if code == 0 {
		t.Fatal("trace with corrupted stamps passed verification")
	}
	if !strings.Contains(errOut, "span ordering check failed") {
		t.Fatalf("unexpected error: %s", errOut)
	}
}

func TestTraceReportErrors(t *testing.T) {
	good := writeObsTrace(t)
	empty := filepath.Join(t.TempDir(), "empty.events")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"trace-report"},                                             // no files
		{"trace-report", "/nonexistent"},                             // missing file
		{"trace-report", empty},                                      // no meta record
		{"trace-report", "-zzz", good},                               // bad flag
		{"trace-report", good, empty},                                // second file unreadable
		{"trace-report", "-chrome", "/nonexistent/dir/x.json", good}, // bad chrome path
	}
	for _, args := range cases {
		if code, _, _ := runTool(t, nil, args...); code == 0 {
			t.Errorf("args %v succeeded, want failure", args)
		}
	}
}

// TestMalformedTraces pins the readers' refusals: each malformed input
// makes both subcommands fail, naming the file, instead of reporting on a
// trace that describes no run.
func TestMalformedTraces(t *testing.T) {
	good := writeObsTrace(t)
	dec, events := obsTraceEvents(t)
	internal := slices.IndexFunc(events, func(e obs.Event) bool { return e.Phase == obs.PhaseInternal })
	write := func(name string, edit func([]obs.Event) []obs.Event) string {
		t.Helper()
		evs := edit(slices.Clone(events))
		path := filepath.Join(t.TempDir(), name+".events")
		if err := node.WriteFlightDump(path, node.DumpMeta{Node: -1, Dec: dec}, evs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name  string
		files []string
		want  string
	}{
		{"same file twice", []string{good, good}, "was already read from " + good},
		{"stamp length", []string{write("stamp", func(evs []obs.Event) []obs.Event {
			evs[0].Stamp = vector.V{0, 0, 0}
			return evs
		})}, "stamp of 3 components, d = 1"},
		{"peer out of range", []string{write("peer", func(evs []obs.Event) []obs.Event {
			evs[0].Peer = 99
			return evs
		})}, "peer 99 out of range [0,3)"},
		{"rendezvous without peer", []string{write("nopeer", func(evs []obs.Event) []obs.Event {
			evs[0].Peer = -1
			return evs
		})}, "peer -1 out of range [0,3)"},
		{"internal with peer", []string{write("internal", func(evs []obs.Event) []obs.Event {
			evs[internal].Peer = 0
			return evs
		})}, "internal event with peer 0"},
		{"wrapped ring", []string{write("wrapped", func(evs []obs.Event) []obs.Event {
			return evs[1:] // process 0 lost its first event
		})}, "process 0's events start at seq 1"},
		{"one node's file of a multi-node run", []string{write("node0", func(evs []obs.Event) []obs.Event {
			return slices.DeleteFunc(evs, func(e obs.Event) bool { return e.Proc != 0 })
		})}, "process 1 is a rendezvous peer of process 0, but no file carries its events: pass every node's event file"},
	}
	for _, tc := range cases {
		for _, cmd := range []string{"trace-report", "critical-path"} {
			code, out, errOut := runTool(t, nil, append([]string{cmd}, tc.files...)...)
			if code == 0 || !strings.Contains(errOut, tc.want) || !strings.Contains(errOut, tc.files[len(tc.files)-1]) {
				t.Errorf("%s, %s: exit %d, stderr %q; want a failure naming the file and %q\nstdout:\n%s",
					tc.name, cmd, code, errOut, tc.want, out)
			}
		}
	}
}
