package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONConforms checks BENCHMARK.json against the format's
// rules — its keys, the limits on names, counts and bounds — and
// against what this program reports: the same workloads, and the same
// metrics with the same units and directions.
func TestBenchmarkJSONConforms(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var top []string
	for k := range keys {
		top = append(top, k)
	}
	sort.Strings(top)
	if got := strings.Join(top, ","); got != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Fatalf("top-level keys %s", got)
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(spec.Paths, ",") != "tsperf" {
		t.Errorf("paths %v, want [tsperf]", spec.Paths)
	}
	if len(spec.Command) == 0 || len(spec.Command) > 32 || !strings.Contains(strings.Join(spec.Command, " "), "tsperf/") {
		t.Errorf("command %v does not run the benchmark's own files", spec.Command)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	for _, group := range [][]specEntry{spec.Workloads, spec.EndToEnd, spec.PerLayer} {
		for _, e := range group {
			if !nameRE.MatchString(e.Name) {
				t.Errorf("name %q is not letters, digits, _, . and -", e.Name)
			}
			if seen[e.Name] {
				t.Errorf("name %q used twice", e.Name)
			}
			seen[e.Name] = true
		}
	}
	for _, w := range spec.Workloads {
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Unit != "" || w.Bound != nil {
			t.Errorf("workload %q: want exactly a name and a one-line why", w.Name)
		}
	}
	var largest float64
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %q: bound %v, want in (0, 0.25]", m.Name, m.Bound)
			continue
		}
		largest = max(largest, *m.Bound)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower" && m.Bound != nil && *m.Bound == largest
		}
	}
	if !setup {
		t.Errorf("setup_s must be declared in s, lower is better, with the largest bound")
	}
	for _, m := range append(append([]specEntry(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Why != "" {
			t.Errorf("metric %q: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer %q has a bound", m.Name)
		}
	}

	var progWorkloads, specWorkloads []string
	for _, w := range workloads {
		progWorkloads = append(progWorkloads, w.name+": "+w.why)
	}
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name+": "+w.Why)
	}
	if a, b := strings.Join(progWorkloads, "\n"), strings.Join(specWorkloads, "\n"); a != b {
		t.Errorf("workloads differ:\nprogram:\n%s\nBENCHMARK.json:\n%s", a, b)
	}
	same := func(kind string, prog []metricDef, decl []specEntry) {
		if len(prog) != len(decl) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", kind, len(prog), len(decl))
			return
		}
		for i, d := range prog {
			if e := decl[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("%s %d: program %+v, BENCHMARK.json %s/%s/%s", kind, i, d, e.Name, e.Unit, e.Better)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
}
