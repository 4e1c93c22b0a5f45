package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compareSpec is a two-metric declaration for the compare tests, so they
// do not depend on the bounds BENCHMARK.json currently holds.
const compareSpec = `{"end_to_end": [
  {"name": "msgs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
  {"name": "msg_p50_us", "unit": "us", "better": "lower", "bound": 0.1}
]}`

var testEnv = environment{GOMAXPROCS: 2, NumCPU: 2, CPU: "Test CPU", Go: "go1.22", GOOS: "linux", GOARCH: "amd64"}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func testArtifact(env environment, msgsPerS, p50 float64, failed int64) artifact {
	return artifact{
		Schema: schema, Workload: "pairs-tcp", Env: env, Correct: failed == 0, Attempted: 1000, Failed: failed,
		Metrics: map[string]artifactMetric{
			"msgs_per_s": {Value: msgsPerS, Unit: "1/s"},
			"msg_p50_us": {Value: p50, Unit: "us"},
		},
	}
}

// compare runs "tsperf -compare prev -out cur" and returns the exit code
// and everything printed.
func compare(t *testing.T, spec, prev, cur string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-compare", prev, "-out", cur, "-spec", spec}, &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

func TestCompareMode(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(compareSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	prev := filepath.Join(dir, "prev")
	writeJSON(t, filepath.Join(prev, "BENCH_pairs-tcp.json"), testArtifact(testEnv, 100000, 200, 0))
	otherCPU := testEnv
	otherCPU.CPU = "Other CPU"
	for _, c := range []struct {
		name     string
		cur      artifact
		fail     bool
		mentions string
	}{
		{"within bounds", testArtifact(testEnv, 95000, 215, 0), false, "msgs_per_s"},
		{"faster", testArtifact(testEnv, 130000, 150, 0), false, "msg_p50_us"},
		{"throughput drop", testArtifact(testEnv, 80000, 200, 0), true, "pairs-tcp msgs_per_s"},
		{"latency rise", testArtifact(testEnv, 100000, 240, 0), true, "pairs-tcp msg_p50_us"},
		{"failures rise", testArtifact(testEnv, 100000, 200, 3), true, "failed share"},
		{"other CPU is not gated", testArtifact(otherCPU, 50000, 400, 0), false, "not gated"},
	} {
		cur := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-"))
		writeJSON(t, filepath.Join(cur, "BENCH_pairs-tcp.json"), c.cur)
		code, out := compare(t, spec, prev, cur)
		if (code != 0) != c.fail {
			t.Errorf("%s: exit %d, want failure=%v\n%s", c.name, code, c.fail, out)
		}
		if !strings.Contains(out, c.mentions) {
			t.Errorf("%s: output does not mention %q:\n%s", c.name, c.mentions, out)
		}
	}
}

// TestCompareToleratesMissingArtifacts covers what CI hands -compare on a
// fresh repository or after the artifact format changed: no previous
// directory, an empty one, and one holding only schema-1 reports.
func TestCompareToleratesMissingArtifacts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(compareSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, "cur")
	writeJSON(t, filepath.Join(cur, "BENCH_pairs-tcp.json"), testArtifact(testEnv, 100000, 200, 0))
	empty := filepath.Join(dir, "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	schema1 := filepath.Join(dir, "schema1")
	writeJSON(t, filepath.Join(schema1, "BENCH_tcp.json"), map[string]any{
		"schema": 1, "name": "tcp", "modes": map[string]any{"batched": map[string]any{"msgs_per_sec": 1e5}},
	})
	for _, c := range []struct{ prev, mentions string }{
		{filepath.Join(dir, "missing"), "does not exist"},
		{empty, "no previous artifact"},
		{schema1, "schema 1"},
	} {
		code, out := compare(t, spec, c.prev, cur)
		if code != 0 {
			t.Errorf("prev %s: exit %d\n%s", c.prev, code, out)
		}
		if !strings.Contains(out, c.mentions) {
			t.Errorf("prev %s: output does not mention %q:\n%s", c.prev, c.mentions, out)
		}
	}
}

// TestOutArtifactsRoundTrip writes quick-run artifacts with -out and
// compares them against themselves: the environment is recorded and an
// identical run never trips the gate.
func TestOutArtifactsRoundTrip(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "star-durable", "-quick", "-seconds", "0", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	b, err := os.ReadFile(filepath.Join(out, "BENCH_star-durable.json"))
	if err != nil {
		t.Fatal(err)
	}
	var a artifact
	if err := json.Unmarshal(b, &a); err != nil {
		t.Fatal(err)
	}
	if a.Schema != schema || a.Env.GOMAXPROCS < 1 || a.Env.Go == "" || a.Sizes["clients"] == 0 || !a.Correct {
		t.Fatalf("artifact lacks schema, environment, sizes or verdict: %s", b)
	}
	if len(a.Metrics) != len(endToEnd) {
		t.Fatalf("artifact has %d metrics, want %d", len(a.Metrics), len(endToEnd))
	}
	if code, msg := compare(t, "../BENCHMARK.json", out, out); code != 0 {
		t.Fatalf("self-compare exit %d:\n%s", code, msg)
	}
}
