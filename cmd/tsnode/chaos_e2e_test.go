package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	tssync "syncstamp/internal/sync"
)

// chaosProgram is the fixed computation the chaos e2e tests run: a path of
// three processes, one per node, with traffic crossing both node links in
// both directions. 24 messages total.
var chaosProgram = strings.Join([]string{
	"0: " + repeatOps("send 1, recvfrom 1", 6),
	"1: " + repeatOps("recvfrom 0, send 0, send 2, recvfrom 2", 6),
	"2: " + repeatOps("recvfrom 1, send 1", 6),
}, "; ")

const chaosMessages = 24

func repeatOps(ops string, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = ops
	}
	return strings.Join(parts, ", ")
}

// chaosNode is one tsnode OS process in a chaos mesh.
type chaosNode struct {
	cmd *exec.Cmd
	out bytes.Buffer
	err bytes.Buffer
}

func startChaosNode(t *testing.T, bin string, args []string) *chaosNode {
	t.Helper()
	cn := &chaosNode{cmd: exec.Command(bin, args...)}
	cn.cmd.Stdout = &cn.out
	cn.cmd.Stderr = &cn.err
	if err := cn.cmd.Start(); err != nil {
		t.Fatalf("starting tsnode: %v", err)
	}
	return cn
}

// wait blocks for process exit (bounded) and returns the exit code.
func (cn *chaosNode) wait(t *testing.T, timeout time.Duration) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cn.cmd.Wait() }()
	select {
	case <-done:
		return cn.cmd.ProcessState.ExitCode()
	case <-time.After(timeout):
		_ = cn.cmd.Process.Kill()
		<-done
		t.Fatalf("tsnode did not exit within %v\nstdout:\n%s\nstderr:\n%s",
			timeout, cn.out.String(), cn.err.String())
		return -1
	}
}

// chaosArgs builds the common flag set for one node of a chaos mesh.
func chaosArgs(i int, addrs []string, trace, journal, plan, retransmitMin string) []string {
	args := []string{
		"-node", fmt.Sprint(i),
		"-addrs", strings.Join(addrs, ","),
		"-topology", "path:3",
		"-placement", "0,1,2",
		"-program", chaosProgram,
		"-handshake-timeout", "30s",
		"-rendezvous-timeout", "60s",
		"-on-peer-loss", "wait",
		"-reconnect-window", "30s",
		"-retransmit-min", retransmitMin,
	}
	if trace != "" {
		args = append(args, "-obs-trace", trace)
	}
	if journal != "" {
		args = append(args, "-journal", journal)
	}
	if plan != "" {
		args = append(args, "-fault-plan", plan)
	}
	if i == 0 {
		args = append(args, "-collect", "-verify", "-collect-timeout", "60s")
	}
	return args
}

// TestE2EFaultPlanDeterministicTraces runs the three-node TCP mesh twice
// under an identical count-based fault plan — the node 0→1 link drops its
// first SYN/ACK frame, forcing a retransmission to mask the loss — and
// requires byte-identical event files across the two runs: the fault
// injector, the retransmission protocol, and the trace exporter must all be
// deterministic together. The RTO floor (-retransmit-min) is chosen to
// dominate any realistic localhost round trip, so the masked drop costs
// exactly one retransmitted SYN in every run (trace meta counts frames; a
// timing-dependent extra retransmit would byte-diff it).
//
// Skipped under -short: it compiles a binary and opens real sockets.
func TestE2EFaultPlanDeterministicTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping OS-process chaos test in -short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not in PATH: %v", err)
	}
	bin := buildBinary(t, goTool, t.TempDir(), "syncstamp/cmd/tsnode")

	planPath := filepath.Join(t.TempDir(), "plan.json")
	plan := `{"seed": 7, "links": [{"from": 0, "to": 1, "dropFrames": [0]}]}`
	if err := os.WriteFile(planPath, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}

	runOnce := func() ([]string, []*chaosNode) {
		addrs := freeAddrs(t, 3)
		dir := t.TempDir()
		traces := make([]string, 3)
		nodes := make([]*chaosNode, 3)
		for i := range nodes {
			traces[i] = filepath.Join(dir, fmt.Sprintf("node%d.events", i))
			nodes[i] = startChaosNode(t, bin, chaosArgs(i, addrs, traces[i], "", planPath, "2500ms"))
		}
		for i, cn := range nodes {
			if code := cn.wait(t, 90*time.Second); code != 0 {
				t.Fatalf("node %d exited %d\nstdout:\n%s\nstderr:\n%s",
					i, code, cn.out.String(), cn.err.String())
			}
		}
		return traces, nodes
	}

	traces, nodes := runOnce()
	again, _ := runOnce()

	// The drops were real and the retransmissions masked them.
	sawRetransmit := false
	for i, cn := range nodes {
		out := cn.out.String()
		if strings.Contains(out, "recovery:") && !strings.Contains(out, "recovery: 0 retransmits") {
			sawRetransmit = true
		}
		if i == 0 {
			if !strings.Contains(out, fmt.Sprintf("reconstructed computation: %d messages", chaosMessages)) {
				t.Fatalf("collector did not reconstruct %d messages:\n%s", chaosMessages, out)
			}
			if !strings.Contains(out, "verified: distributed stamps match the sequential replay") {
				t.Fatalf("collector did not verify the faulted run:\n%s", out)
			}
		}
		if !strings.Contains(out, "faults injected:") {
			t.Fatalf("node %d printed no fault summary:\n%s", i, out)
		}
	}
	if !sawRetransmit {
		t.Fatal("no node retransmitted despite the drop plan")
	}

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
			t.Errorf("node %d's event file differs across two faulted runs:\n%x\n---\n%x", i, a, b)
		}
	}
}

// TestE2EAsyncKillNineRecovers is the async-substrate acceptance run: three
// tsnode OS processes over real TCP at the default RTO floor, every link
// jittered by a lognormal latency profile, with node 1 SIGKILLed
// mid-computation and restarted from its write-ahead journal. The adaptive
// RTO must carry the
// rendezvous protocol across the jitter, the restarted incarnation must
// resume the session, and the collector must verify the stitched run's
// stamps against the sequential replay — the synchronizer changes when
// frames move, never what the stamps say.
//
// Skipped under -short: it compiles a binary, opens sockets, and kills a
// process.
func TestE2EAsyncKillNineRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping async kill -9 e2e in -short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not in PATH: %v", err)
	}
	bin := buildBinary(t, goTool, t.TempDir(), "syncstamp/cmd/tsnode")

	dir := t.TempDir()
	addrs := freeAddrs(t, 3)
	journals := make([]string, 3)
	for i := range journals {
		journals[i] = filepath.Join(dir, fmt.Sprintf("node%d.journal", i))
	}
	// The jitter stretches the run past the kill point; at the default RTO
	// floor it is the per-peer adaptive RTO that has to ride it out.
	asyncArgs := func(i int) []string {
		journal := ""
		if i != 0 {
			journal = journals[i]
		}
		return append(chaosArgs(i, addrs, "", journal, "", tssync.DefaultRTOMin.String()),
			"-jitter-profile", "lognormal:10:0.5")
	}

	n0 := startChaosNode(t, bin, asyncArgs(0))
	n1 := startChaosNode(t, bin, asyncArgs(1))
	n2 := startChaosNode(t, bin, asyncArgs(2))

	killed := false
	var restarts int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(400 * time.Millisecond)
		done := make(chan error, 1)
		go func() { done <- n1.cmd.Wait() }()
		select {
		case <-done:
			return // finished before the axe fell
		default:
		}
		killed = true
		_ = n1.cmd.Process.Kill() // SIGKILL: no defers, no goodbye
		<-done
		for {
			restarts++
			cn := startChaosNode(t, bin, asyncArgs(1))
			code := cn.wait(t, 120*time.Second)
			n1 = cn
			if code == 0 {
				return
			}
			if restarts > 20 {
				t.Errorf("node 1 still failing after %d restarts (last exit %d)\nstdout:\n%s\nstderr:\n%s",
					restarts, code, cn.out.String(), cn.err.String())
				return
			}
		}
	}()

	code0 := n0.wait(t, 180*time.Second)
	code2 := n2.wait(t, 180*time.Second)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("killed=%v restarts=%d", killed, restarts)
	if code0 != 0 {
		t.Fatalf("collector exited %d\nstdout:\n%s\nstderr:\n%s", code0, n0.out.String(), n0.err.String())
	}
	if code2 != 0 {
		t.Fatalf("node 2 exited %d\nstdout:\n%s\nstderr:\n%s", code2, n2.out.String(), n2.err.String())
	}
	out0 := n0.out.String()
	if !strings.Contains(out0, fmt.Sprintf("reconstructed computation: %d messages", chaosMessages)) {
		t.Fatalf("collector did not reconstruct %d messages:\n%s", chaosMessages, out0)
	}
	if !strings.Contains(out0, "verified: distributed stamps match the sequential replay") {
		t.Fatalf("collector did not verify the async run:\n%s", out0)
	}
	if !strings.Contains(out0, "tsnode: sync:") {
		t.Fatalf("collector printed no synchronizer summary:\n%s", out0)
	}
	if killed && !strings.Contains(n1.out.String(), "restart #") {
		t.Fatalf("node 1 was SIGKILLed but its final incarnation did not resume from the journal:\n%s", n1.out.String())
	}
}

// TestE2EKillNineRecoverySoak is the crash-recovery soak: three tsnode OS
// processes over TCP, where node 1 is killed with SIGKILL mid-run and node 2
// kills itself (exit 137, no graceful shutdown) on a scheduled fault-plan
// crash — repeatedly, since the restarted incarnation runs the same plan.
// Both keep write-ahead journals; the harness restarts each dead node with
// identical flags until it completes, and the collector verifies the stamps
// of the stitched-together run against the sequential replay. Each node's
// -obs-trace file must equal its end-of-run flight dump, and the dumps then
// go through "tsanalyze trace-report" as an independent oracle.
//
// Journals group-commit (one fsync covers a batch of records), so the
// SIGKILL lands between batch commits and may tear a multi-record batch
// mid-line; the two seeds exercise that torn-batch recovery twice.
//
// Skipped under -short: it compiles binaries, opens sockets, and kills
// processes.
func TestE2EKillNineRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping kill -9 soak in -short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not in PATH: %v", err)
	}
	binDir := t.TempDir()
	bin := buildBinary(t, goTool, binDir, "syncstamp/cmd/tsnode")
	tsanalyze := buildBinary(t, goTool, binDir, "syncstamp/cmd/tsanalyze")

	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d-group", seed), func(t *testing.T) {
			dir := t.TempDir()
			addrs := freeAddrs(t, 3)
			traces := make([]string, 3)
			journals := make([]string, 3)
			flights := make([]string, 3)
			for i := range traces {
				traces[i] = filepath.Join(dir, fmt.Sprintf("node%d.events", i))
				journals[i] = filepath.Join(dir, fmt.Sprintf("node%d.journal", i))
				flights[i] = filepath.Join(dir, fmt.Sprintf("node%d.flight", i))
			}
			// Delays stretch the run so the SIGKILL lands mid-computation;
			// node 2 additionally crashes itself every 10 egress frames.
			planPath := filepath.Join(dir, "plan.json")
			plan := fmt.Sprintf(`{"seed": %d,
				"links": [{"from": -1, "to": -1, "delayMs": 15, "delayProb": 1}],
				"crashes": [{"node": 2, "afterFrames": 10}]}`, seed)
			if err := os.WriteFile(planPath, []byte(plan), 0o644); err != nil {
				t.Fatal(err)
			}

			// Every node keeps a flight recorder with a dump path: crashes and
			// peer losses snapshot the ring, and each surviving incarnation's
			// end-of-run dump overwrites with the full journal-restored
			// history.
			journalArgs := func(i int) []string {
				return append(chaosArgs(i, addrs, traces[i], journals[i], planPath, "250ms"),
					"-flight-dump", flights[i])
			}
			n0 := startChaosNode(t, bin, append(chaosArgs(0, addrs, traces[0], "", planPath, "250ms"),
				"-flight-dump", flights[0]))
			n1 := startChaosNode(t, bin, journalArgs(1))
			n2 := startChaosNode(t, bin, journalArgs(2))

			// Kill node 1 the hard way once the mesh is busy, then restart it
			// from its journal.
			var n1restarts int
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(600 * time.Millisecond)
				done := make(chan error, 1)
				go func() { done <- n1.cmd.Wait() }()
				select {
				case <-done:
					// Finished before the axe fell; nothing to recover.
					return
				default:
				}
				_ = n1.cmd.Process.Kill() // SIGKILL: no defers, no goodbye
				<-done
				for {
					n1restarts++
					cn := startChaosNode(t, bin, journalArgs(1))
					code := cn.wait(t, 120*time.Second)
					n1 = cn
					if code == 0 {
						return
					}
					// Nonzero exits are retried: a restart racing the peers'
					// detection of the death can be refused once as a
					// duplicate session.
					if n1restarts > 20 {
						t.Errorf("node 1 still failing after %d restarts (last exit %d)\nstdout:\n%s\nstderr:\n%s",
							n1restarts, code, cn.out.String(), cn.err.String())
						return
					}
				}
			}()

			// Node 2 crashes on schedule; restart it until the journal carries
			// it past the remaining work.
			var n2restarts int
			wg.Add(1)
			go func() {
				defer wg.Done()
				cn := n2
				for {
					code := cn.wait(t, 120*time.Second)
					n2 = cn
					if code == 0 {
						return
					}
					n2restarts++
					if n2restarts > 20 {
						t.Errorf("node 2 still failing after %d restarts (last exit %d)\nstdout:\n%s\nstderr:\n%s",
							n2restarts, code, cn.out.String(), cn.err.String())
						return
					}
					cn = startChaosNode(t, bin, journalArgs(2))
				}
			}()

			code0 := n0.wait(t, 180*time.Second)
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if code0 != 0 {
				t.Fatalf("collector exited %d\nstdout:\n%s\nstderr:\n%s",
					code0, n0.out.String(), n0.err.String())
			}
			if n2restarts == 0 {
				t.Fatal("node 2 never hit its scheduled crash; the soak tested nothing")
			}
			out0 := n0.out.String()
			if !strings.Contains(out0, fmt.Sprintf("reconstructed computation: %d messages", chaosMessages)) {
				t.Fatalf("collector did not reconstruct %d messages:\n%s", chaosMessages, out0)
			}
			if !strings.Contains(out0, "verified: distributed stamps match the sequential replay") {
				t.Fatalf("collector did not verify the crash-recovered run:\n%s", out0)
			}
			finalN2 := n2.out.String()
			if !strings.Contains(finalN2, "restart #") {
				t.Fatalf("node 2's final incarnation did not resume from its journal:\n%s", finalN2)
			}

			// Each surviving incarnation's end-of-run flight dump is its
			// -obs-trace file, byte for byte: crashed incarnations never
			// export, and the journal restores the committed history through
			// the obs hooks, so the final files are a complete causal
			// post-mortem despite the crashes.
			for i := range traces {
				a, errA := os.ReadFile(traces[i])
				b, errB := os.ReadFile(flights[i])
				if errA != nil || errB != nil || len(a) == 0 || !bytes.Equal(a, b) {
					t.Fatalf("node %d: -obs-trace file (%d bytes, %v) is not its flight dump (%d bytes, %v)",
						i, len(a), errA, len(b), errB)
				}
			}
			// Independent oracle: the merged dumps, the restarted nodes'
			// included, must replay-verify against the sequential oracle
			// through tsanalyze.
			out, err := exec.Command(tsanalyze, append([]string{"trace-report"}, flights...)...).CombinedOutput()
			if err != nil {
				t.Fatalf("tsanalyze trace-report: %v\n%s", err, out)
			}
			report := string(out)
			if !strings.Contains(report, fmt.Sprintf("%d messages", chaosMessages)) {
				t.Fatalf("trace-report missed the computation:\n%s", report)
			}
			if !strings.Contains(report, "verified: span stamps match the sequential replay") {
				t.Fatalf("trace-report did not verify the spans:\n%s", report)
			}
		})
	}
}
