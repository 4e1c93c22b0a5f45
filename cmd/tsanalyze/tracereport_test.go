package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/obs"
	"syncstamp/internal/vector"
)

// writeObsTrace runs a small in-process computation under tracing and
// writes its JSONL export to a temp file.
func writeObsTrace(t *testing.T) string {
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
	meta, err := obs.NewMeta(-1, dec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, meta, o.Recorder.Events()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
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
	meta, err := obs.NewMeta(0, dec)
	if err != nil {
		t.Fatal(err)
	}
	events := []obs.Event{
		{Proc: 0, Peer: 1, Seq: 0, Phase: obs.PhaseSyn, Stamp: vector.V{0}},
		{Proc: 0, Peer: 1, Seq: 1, Phase: obs.PhaseAdopt, Stamp: vector.V{5}},
		{Proc: 1, Peer: 0, Seq: 0, Phase: obs.PhaseMerge, Stamp: vector.V{5}},
		{Proc: 1, Peer: 0, Seq: 1, Phase: obs.PhaseAck, Stamp: vector.V{5}},
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, meta, events); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
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
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
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
