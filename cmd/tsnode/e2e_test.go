package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// e2eProgram is the fixed computation the OS-process tests run: 2 servers
// (0,1) x 4 clients (2..5), plus the 0-1 edge — so servers 0, 1 and any
// client close a triangle. 7 messages, 1 internal event.
var e2eProgram = strings.Join([]string{
	"0: recvfrom 2, recvfrom 3, send 1, recvfrom 4, internal server0 drained",
	"1: recvfrom 2, recvfrom 3, recvfrom 0, recvfrom 5",
	"2: send 0, send 1",
	"3: send 0, send 1",
	"4: send 0",
	"5: send 1",
}, "; ")

// buildBinary compiles one of this repo's commands into dir.
func buildBinary(t *testing.T, goTool, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	build := exec.Command(goTool, "build", "-o", bin, pkg)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// runE2EMesh launches the three-node mesh as real OS processes with
// observability enabled and returns the per-node event files, each checked
// byte-identical to the node's end-of-run flight dump. With
// poll set, nodes 0 and 1 are started first and their /metrics and /healthz
// endpoints are exercised over HTTP while they sit in the handshake waiting
// for node 2 — proving the obs server is live during the run, not just
// after it.
func runE2EMesh(t *testing.T, bin string, poll bool) []string {
	t.Helper()
	addrs := freeAddrs(t, 3)
	obsAddrs := freeAddrs(t, 3)
	dir := t.TempDir()
	traces := make([]string, 3)
	for i := range traces {
		traces[i] = filepath.Join(dir, fmt.Sprintf("node%d.events", i))
	}
	flight := func(i int) string { return filepath.Join(dir, fmt.Sprintf("node%d.flight", i)) }
	common := []string{
		"-addrs", strings.Join(addrs, ","),
		"-topology", "clientserver:2x4",
		"-extra-edges", "0-1",
		"-placement", "0,1,2,0,1,2",
		"-program", e2eProgram,
		"-handshake-timeout", "20s",
		"-rendezvous-timeout", "20s",
	}

	type procResult struct {
		out, errOut bytes.Buffer
		err         error
	}
	results := make([]procResult, 3)
	var wg sync.WaitGroup
	start := func(i int) {
		t.Helper()
		args := []string{
			"-node", fmt.Sprint(i),
			"-obs-addr", obsAddrs[i],
			"-obs-trace", traces[i],
			"-flight-dump", flight(i),
		}
		args = append(args, common...)
		if i == 0 {
			args = append(args, "-collect", "-verify", "-collect-timeout", "30s")
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &results[i].out
		cmd.Stderr = &results[i].errOut
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case results[i].err = <-done:
			case <-time.After(90 * time.Second):
				_ = cmd.Process.Kill()
				results[i].err = <-done
			}
		}()
	}

	start(0)
	start(1)
	if poll {
		// Nodes 0 and 1 are blocked in the handshake until node 2 arrives;
		// their obs endpoints must already be serving.
		for node := 0; node < 2; node++ {
			pollEndpoint(t, "http://"+obsAddrs[node]+"/healthz", "ok")
			pollEndpoint(t, "http://"+obsAddrs[node]+"/metrics", `"counters"`)
		}
	}
	start(2)
	wg.Wait()

	for i := range results {
		if results[i].err != nil {
			t.Errorf("node %d exited with %v\nstdout:\n%s\nstderr:\n%s",
				i, results[i].err, results[i].out.String(), results[i].errOut.String())
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	got := results[0].out.String()
	if !strings.Contains(got, "reconstructed computation: 7 messages, 1 internal events") {
		t.Fatalf("collector did not reconstruct the expected computation:\n%s", got)
	}
	if !strings.Contains(got, "verified: distributed stamps match the sequential replay") {
		t.Fatalf("collector did not verify the run:\n%s", got)
	}
	for i := 1; i < 3; i++ {
		if !strings.Contains(results[i].out.String(), "logs reported to node 0") {
			t.Fatalf("node %d did not report its logs:\n%s", i, results[i].out.String())
		}
	}
	for i := range results {
		if !strings.Contains(results[i].out.String(), "trace written to "+traces[i]) {
			t.Fatalf("node %d did not write its trace:\n%s", i, results[i].out.String())
		}
		a, errA := os.ReadFile(traces[i])
		b, errB := os.ReadFile(flight(i))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("node %d: -obs-trace file (%d bytes, %v) is not its end-of-run flight dump (%d bytes, %v)",
				i, len(a), errA, len(b), errB)
		}
	}
	return traces
}

// pollEndpoint GETs the URL with retries until the body contains want.
func pollEndpoint(t *testing.T, url, want string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && strings.Contains(string(body), want) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: still not serving %q (last err %v)", url, want, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestE2EThreeOSProcesses is the full-stack integration test: it builds the
// tsnode and tsanalyze binaries, launches three real OS processes forming a
// TCP mesh over localhost, exercises the live observability endpoints while
// the mesh is forming, verifies the reconstructed stamps, checks that a
// second run exports byte-identical event files, and feeds the files
// through "tsanalyze trace-report" for the independent span-ordering oracle.
//
// Skipped under -short: it compiles binaries and opens real sockets.
func TestE2EThreeOSProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping OS-process integration test in -short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not in PATH: %v", err)
	}
	binDir := t.TempDir()
	tsnode := buildBinary(t, goTool, binDir, "syncstamp/cmd/tsnode")
	tsanalyze := buildBinary(t, goTool, binDir, "syncstamp/cmd/tsanalyze")

	traces := runE2EMesh(t, tsnode, true)
	again := runE2EMesh(t, tsnode, false)
	for i := range traces {
		a, err := os.ReadFile(traces[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(again[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 {
			t.Fatalf("node %d exported an empty trace", i)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("node %d's event file differs across two runs:\n%x\n---\n%x", i, a, b)
		}
	}

	chrome := filepath.Join(t.TempDir(), "run.chrome.json")
	args := append([]string{"trace-report", "-chrome", chrome}, traces...)
	out, err := exec.Command(tsanalyze, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("tsanalyze trace-report: %v\n%s", err, out)
	}
	report := string(out)
	if !strings.Contains(report, "7 messages, 1 internal events") {
		t.Fatalf("trace-report missed the computation:\n%s", report)
	}
	if !strings.Contains(report, "verified: span stamps match the sequential replay") {
		t.Fatalf("trace-report did not verify the spans:\n%s", report)
	}
	if !strings.Contains(report, "wire traffic by frame kind:") {
		t.Fatalf("trace-report printed no wire table:\n%s", report)
	}
	if fi, err := os.Stat(chrome); err != nil || fi.Size() == 0 {
		t.Fatalf("chrome trace missing or empty: %v", err)
	}

	// The causal critical-path profile is a pure function of the computation:
	// profiling the two independent runs' traces must produce byte-identical
	// reports, whose end-to-end length dominates every per-process span.
	profile := func(traceFiles []string) string {
		t.Helper()
		out, err := exec.Command(tsanalyze, append([]string{"critical-path"}, traceFiles...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("tsanalyze critical-path: %v\n%s", err, out)
		}
		return string(out)
	}
	crit := profile(traces)
	if crit2 := profile(again); crit != crit2 {
		t.Errorf("critical-path report differs across two runs:\n%s\n---\n%s", crit, crit2)
	}
	var length, steps int
	if _, err := fmt.Sscanf(crit, "critical-path: 3 file(s), nodes [0 1 2], N=6 processes, d=%d\ncritical path: %d causal ticks end-to-end over %d steps",
		new(int), &length, &steps); err != nil {
		t.Fatalf("unparseable critical-path header (%v):\n%s", err, crit)
	}
	if length <= 0 || steps <= 0 {
		t.Fatalf("degenerate critical path (%d ticks, %d steps):\n%s", length, steps, crit)
	}
	procs := 0
	for _, line := range strings.Split(crit, "\n") {
		var proc, endSum, slack int
		if _, err := fmt.Sscanf(line, "  P%d %d %d", &proc, &endSum, &slack); err != nil {
			continue
		}
		procs++
		if endSum > length {
			t.Errorf("P%d causal-tick span %d exceeds the end-to-end length %d", proc, endSum, length)
		}
		if slack != length-endSum {
			t.Errorf("P%d slack %d, want %d", proc, slack, length-endSum)
		}
	}
	if procs != 6 {
		t.Fatalf("slack table lists %d processes, want 6:\n%s", procs, crit)
	}
	if !strings.Contains(crit, "rendezvous-link blame (ranked by critical-path ticks):") {
		t.Fatalf("critical-path printed no blame table:\n%s", crit)
	}
}
