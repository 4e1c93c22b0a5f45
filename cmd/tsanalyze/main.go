// Command tsanalyze inspects a recorded synchronous computation using only
// its timestamps, the way a monitoring/debugging tool would (Section 1 of
// the paper): summary statistics, the rendezvous critical path, concurrency
// structure, and what-if orphan analysis for optimistic recovery.
//
// Usage:
//
//	tsgen -topology clientserver:2x6 -messages 40 | tsanalyze
//	tsanalyze -trace run.trace -lost 3 -diagram
//
// The "trace-report" subcommand instead ingests event files — the flight
// dumps tsnode writes with -obs-trace or -flight-dump, or that
// node.WriteFlightDump writes from any recorded run — verifies the recorded
// spans against a full reconstruction of the computation, and summarizes
// causal latency and wire traffic. A file from a flight ring that wrapped
// is refused, since it lacks the run's start:
//
//	tsanalyze trace-report -chrome run.chrome.json node0.events node1.events
//
// The "critical-path" subcommand profiles the same event files causally:
// it reconstructs the computation as trace-report does, walks it for the
// longest weighted causal chain (in causal ticks, so the report is
// byte-identical across runs), and prints per-process slack plus a ranked
// blame table of rendezvous links. Both subcommands need every node's event
// file, and refuse a set that names a rendezvous peer no file carries:
//
//	tsanalyze critical-path node0.events node1.events node2.events
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/monitor"
	"syncstamp/internal/offline"
	"syncstamp/internal/sim"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
	"syncstamp/internal/vis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "trace-report" {
		return runTraceReport(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "critical-path" {
		return runCriticalPath(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("tsanalyze", flag.ContinueOnError)
	traceFile := fs.String("trace", "", "trace file (default stdin)")
	lost := fs.Int("lost", -1, "message index to treat as rolled back (orphan what-if)")
	diagram := fs.Bool("diagram", false, "render the time diagram")
	maxPairs := fs.Int("pairs", 10, "max concurrent pairs to list")
	jsonOut := fs.Bool("json", false, "emit the analysis as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var in io.Reader = stdin
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(stderr, "tsanalyze:", err)
			return 1
		}
		defer func() {
			_ = f.Close() // read-only file
		}()
		in = f
	}
	tr, err := trace.ReadText(in)
	if err != nil {
		fmt.Fprintln(stderr, "tsanalyze:", err)
		return 1
	}
	if tr.NumMessages() == 0 {
		fmt.Fprintln(stderr, "tsanalyze: trace has no messages")
		return 1
	}

	dec := decomp.Best(tr.Topology())
	stamps, err := core.StampTrace(tr, dec)
	if err != nil {
		fmt.Fprintln(stderr, "tsanalyze:", err)
		return 1
	}
	off, err := offline.Stamp(tr)
	if err != nil {
		fmt.Fprintln(stderr, "tsanalyze:", err)
		return 1
	}

	m := len(stamps)
	pairs := monitor.ConcurrentMessages(stamps)
	total := m * (m - 1) / 2
	var ratio float64
	if total > 0 {
		ratio = float64(len(pairs)) / float64(total)
	}
	length, chain := monitor.CriticalPath(stamps)
	sched, err := sim.Schedule(tr, sim.Uniform(1, 1))
	if err != nil {
		fmt.Fprintln(stderr, "tsanalyze:", err)
		return 1
	}
	var orphans []int
	if *lost >= 0 {
		if *lost >= m {
			fmt.Fprintf(stderr, "tsanalyze: -lost %d out of range (have %d messages)\n", *lost, m)
			return 1
		}
		orphans = monitor.Orphans(stamps, []vector.V{stamps[*lost]})
	}

	if *jsonOut {
		report := struct {
			Processes        int     `json:"processes"`
			Messages         int     `json:"messages"`
			InternalEvents   int     `json:"internal_events"`
			OnlineD          int     `json:"online_d"`
			OfflineWidth     int     `json:"offline_width"`
			FMSize           int     `json:"fm_size"`
			ConcurrentPairs  int     `json:"concurrent_pairs"`
			ConcurrencyRatio float64 `json:"concurrency_ratio"`
			CriticalPath     []int   `json:"critical_path"`
			Makespan         int     `json:"makespan_unit_costs"`
			Speedup          float64 `json:"speedup"`
			Lost             *int    `json:"lost,omitempty"`
			Orphans          []int   `json:"orphans,omitempty"`
		}{
			Processes:        tr.N,
			Messages:         m,
			InternalEvents:   tr.NumInternal(),
			OnlineD:          dec.D(),
			OfflineWidth:     off.Width,
			FMSize:           tr.N,
			ConcurrentPairs:  len(pairs),
			ConcurrencyRatio: ratio,
			CriticalPath:     chain,
			Makespan:         sched.Makespan,
			Speedup:          sched.Parallelism(),
		}
		if *lost >= 0 {
			report.Lost = lost
			report.Orphans = orphans
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "tsanalyze:", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "computation: N=%d processes, %d messages, %d internal events\n",
		tr.N, m, tr.NumInternal())
	fmt.Fprintf(stdout, "timestamps: online d=%d, offline width=%d (FM would use %d)\n",
		dec.D(), off.Width, tr.N)
	fmt.Fprintf(stdout, "concurrency: %d of %d message pairs concurrent (%.1f%%)\n",
		len(pairs), total, 100*ratio)
	for i, p := range pairs {
		if i >= *maxPairs {
			fmt.Fprintf(stdout, "  ... and %d more\n", len(pairs)-*maxPairs)
			break
		}
		fmt.Fprintf(stdout, "  m%d ‖ m%d\n", p.I+1, p.J+1)
	}
	fmt.Fprintf(stdout, "critical path: %d rendezvous:", length)
	for _, c := range chain {
		fmt.Fprintf(stdout, " m%d", c+1)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "timing (unit costs): makespan %d ticks, speedup %.2fx over serial %d\n",
		sched.Makespan, sched.Parallelism(), sched.SerialTime)
	if *lost >= 0 {
		fmt.Fprintf(stdout, "rollback of m%d orphans %d messages:", *lost+1, len(orphans))
		for _, o := range orphans {
			fmt.Fprintf(stdout, " m%d", o+1)
		}
		fmt.Fprintln(stdout)
	}

	if *diagram {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, vis.Render(tr, vis.Options{Stamps: stamps, MaxOpsPerBand: 24}))
	}
	return 0
}
