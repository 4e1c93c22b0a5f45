package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// lastLine decodes the JSON object a run ends its standard output with,
// insisting on exactly the four top-level keys.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	got := make([]string, 0, len(keys))
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("last line keys %v, want attempted, correct, failed, metrics", got)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// timeUnits are the units whose metrics must be measured on every workload.
var timeUnits = map[string]bool{"ns": true, "us": true, "ms": true, "s": true}

// TestQuickRunsEmitDeclaredMetrics runs every workload at -quick size,
// untraced and traced, and checks the result line carries exactly the
// declared metric set with the declared units. Untraced, every end-to-end
// metric is positive; traced, every layer metric with a time unit is,
// because each is measured on every workload. The runtime's accounting is
// exempt: a quick run can be too short to contend a single mutex.
func TestQuickRunsEmitDeclaredMetrics(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0", "--trace", trace, "-quick"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.name, trace, code, stderr.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d", w.name, trace, r.Correct, r.Attempted, r.Failed)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			var got []string
			for k := range r.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if want := metricNames(defs); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("%s trace=%s: metrics %v, want %v", w.name, trace, got, want)
			}
			for _, d := range defs {
				m := r.Metrics[d.name]
				if m.Unit != d.unit {
					t.Errorf("%s: %s unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				}
				measured := trace == "0" || (timeUnits[d.unit] && !strings.HasPrefix(d.name, "runtime."))
				if measured && !(m.Value > 0) {
					t.Errorf("%s trace=%s: %s = %v, want > 0", w.name, trace, d.name, m.Value)
				}
			}
		}
	}
}

// TestCorruptStampFailsRun alters one collected stamp (one record's stamp
// on collect-tree) before verification: the run must fail with every
// attempted message counted as failed, and the command must exit nonzero.
func TestCorruptStampFailsRun(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range []workloadDef{workloads[0], workloads[3]} {
		var stdout, stderr bytes.Buffer
		code := execute([]workloadDef{w}, options{seed: 5, quick: true, corrupt: true}, "", &stdout, &stderr)
		if code == 0 {
			t.Fatalf("%s: exit 0 with a corrupted stamp", w.name)
		}
		if !strings.Contains(stderr.String(), errVerify.Error()) {
			t.Errorf("%s: stderr %q does not report the verification failure", w.name, stderr.String())
		}
		r := lastLine(t, stdout.String())
		if r.Correct || r.Attempted < 1 || r.Failed != r.Attempted {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d, want every message failed", w.name, r.Correct, r.Attempted, r.Failed)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "-1"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a result: %q", args, stdout.String())
		}
	}
}
