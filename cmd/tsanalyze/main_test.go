package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = "n 4\nm 0 1\nm 2 3\nm 1 2\ni 0\nm 2 3\n"

func runTool(t *testing.T, stdin io.Reader, args ...string) (int, string, string) {
	t.Helper()
	if stdin == nil {
		stdin = strings.NewReader("")
	}
	var out, errOut bytes.Buffer
	code := run(args, stdin, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestAnalyzeFromStdin(t *testing.T) {
	code, out, errOut := runTool(t, strings.NewReader(sample))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{
		"N=4 processes, 4 messages, 1 internal",
		"online d=",
		"offline width=",
		"concurrency:",
		"critical path:",
		"timing (unit costs): makespan",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeLostAndDiagram(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "t.trace")
	if err := os.WriteFile(f, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runTool(t, nil, "-trace", f, "-lost", "0", "-diagram")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "rollback of m1 orphans") {
		t.Fatalf("missing orphan analysis:\n%s", out)
	}
	if !strings.Contains(out, "P1 -") {
		t.Fatalf("missing diagram:\n%s", out)
	}
}

func TestAnalyzePairLimit(t *testing.T) {
	// Many concurrent pairs between disjoint channels.
	var b strings.Builder
	b.WriteString("n 8\n")
	for k := 0; k < 6; k++ {
		b.WriteString("m 0 1\nm 2 3\nm 4 5\nm 6 7\n")
	}
	code, out, _ := runTool(t, strings.NewReader(b.String()), "-pairs", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "... and") {
		t.Fatalf("pair limit not applied:\n%s", out)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct {
		stdin string
		args  []string
	}{
		{"garbage", nil},
		{"n 3\n", nil},                           // no messages
		{sample, []string{"-lost", "99"}},        // out of range
		{"", []string{"-trace", "/nonexistent"}}, // missing file
		{sample, []string{"-zzz"}},               // bad flag
	}
	for _, tc := range cases {
		if code, _, _ := runTool(t, strings.NewReader(tc.stdin), tc.args...); code == 0 {
			t.Errorf("args %v succeeded, want failure", tc.args)
		}
	}
}

func TestAnalyzeJSON(t *testing.T) {
	code, out, errOut := runTool(t, strings.NewReader(sample), "-json", "-lost", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var report struct {
		Processes        int     `json:"processes"`
		Messages         int     `json:"messages"`
		OnlineD          int     `json:"online_d"`
		OfflineWidth     int     `json:"offline_width"`
		ConcurrentPairs  int     `json:"concurrent_pairs"`
		ConcurrencyRatio float64 `json:"concurrency_ratio"`
		CriticalPath     []int   `json:"critical_path"`
		Speedup          float64 `json:"speedup"`
		Lost             *int    `json:"lost"`
		Orphans          []int   `json:"orphans"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("stdout not JSON: %v\n%s", err, out)
	}
	if report.Processes != 4 || report.Messages != 4 {
		t.Fatalf("report = %+v", report)
	}
	// Only m1 ‖ m2 of the sample's 6 message pairs is concurrent.
	if report.ConcurrentPairs != 1 || report.ConcurrencyRatio != 1.0/6 {
		t.Fatalf("concurrency fields: %+v, want 1 of 6 pairs", report)
	}
	if report.Lost == nil || *report.Lost != 1 || len(report.Orphans) == 0 {
		t.Fatalf("orphan fields: %+v", report)
	}
	if len(report.CriticalPath) == 0 || report.OnlineD < 1 {
		t.Fatalf("analysis fields: %+v", report)
	}
}
