package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"syncstamp/internal/check"
	"syncstamp/internal/csp"
	"syncstamp/internal/obs"
)

// runTraceReport implements the trace-report subcommand: ingest one JSONL
// trace per node (or a single in-process trace), reconstruct the computation
// from the recorded spans, verify the span stamps against the sequential
// Figure 5 replay and the ground-truth message poset, and print causal
// latency and wire-traffic summaries. All output is derived from stamps and
// frame accounting — never from wall clocks — so it is byte-stable across
// runs of the same computation.
func runTraceReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsanalyze trace-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chromeOut := fs.String("chrome", "", "write a Chrome trace_event file here (chrome://tracing, Perfetto)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tsanalyze:", err)
		return 1
	}
	files := fs.Args()
	if len(files) == 0 {
		return fail(fmt.Errorf("trace-report needs at least one JSONL trace file"))
	}

	metas, events, nodes, dec, err := readTraces(files)
	if err != nil {
		return fail(err)
	}

	res, err := csp.Reconstruct(dec, csp.LogsFromEvents(dec.N(), events))
	if err != nil {
		return fail(fmt.Errorf("reconstructing the computation from the trace: %w", err))
	}
	fmt.Fprintf(stdout, "trace-report: %d file(s), nodes %v, N=%d processes, d=%d\n",
		len(files), nodes, dec.N(), dec.D())
	fmt.Fprintf(stdout, "events: %d records — %d messages, %d internal events\n",
		len(events), res.Trace.NumMessages(), len(res.Internal))
	if err := check.Verify(res, dec); err != nil {
		return fail(fmt.Errorf("span ordering check failed: %w", err))
	}
	fmt.Fprintln(stdout, "verified: span stamps match the sequential replay and characterize the message order exactly")

	printCausalLatency(stdout, events)
	printWireTraffic(stdout, metas)

	if *chromeOut != "" {
		if err := writeChromeFile(*chromeOut, events); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "chrome trace written to %s\n", *chromeOut)
	}
	return 0
}

// printCausalLatency buckets each send's causal latency (the stamp-sum
// growth across its rendezvous) on the fixed tick edges.
func printCausalLatency(w io.Writer, events []obs.Event) {
	h := obs.NewHistogram(obs.TickEdges)
	for _, l := range obs.CausalLatencies(events) {
		h.Observe(l)
	}
	snap := h.Snapshot()
	fmt.Fprintf(w, "causal latency (ticks): %d sends", snap.Count)
	if snap.Count > 0 {
		fmt.Fprintf(w, ", mean %.1f, p50<=%d, p90<=%d, max<=%d",
			float64(snap.Sum)/float64(snap.Count), snap.Quantile(0.5), snap.Quantile(0.9), snap.Quantile(1))
	}
	fmt.Fprintln(w)
	for i, c := range snap.Counts {
		if c == 0 {
			continue
		}
		if i < len(snap.Edges) {
			fmt.Fprintf(w, "  <=%-4d %d\n", snap.Edges[i], c)
		} else {
			fmt.Fprintf(w, "  >%-4d  %d\n", snap.Edges[len(snap.Edges)-1], c)
		}
	}
}

// printWireTraffic aggregates the per-node frame accounting from the meta
// headers into one table, sorted by frame kind name.
func printWireTraffic(w io.Writer, metas []obs.Meta) {
	agg := make(map[string]obs.FrameStats)
	for _, m := range metas {
		var kinds []string
		for k := range m.Frames {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			a := agg[k]
			a.Frames += m.Frames[k].Frames
			a.Bytes += m.Frames[k].Bytes
			agg[k] = a
		}
	}
	if len(agg) == 0 {
		fmt.Fprintln(w, "wire traffic: none recorded (in-process run)")
		return
	}
	var kinds []string
	for k := range agg {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintln(w, "wire traffic by frame kind:")
	var frames, bytes int
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-9s %4d frames %8d bytes\n", k, agg[k].Frames, agg[k].Bytes)
		frames += agg[k].Frames
		bytes += agg[k].Bytes
	}
	fmt.Fprintf(w, "  %-9s %4d frames %8d bytes\n", "total", frames, bytes)
}

// writeChromeFile exports the merged events as a Chrome trace_event file
// whose cross-process ordering comes from the vector stamps.
func writeChromeFile(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(f, events); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
