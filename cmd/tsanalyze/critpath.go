package main

import (
	"flag"
	"fmt"
	"io"

	"syncstamp/internal/core"
	"syncstamp/internal/node"
	"syncstamp/internal/obs"
)

// runCriticalPath implements the critical-path subcommand: ingest every
// node's event file, reconstruct the computation as trace-report does, and
// print the longest weighted causal chain with per-process slack and a
// ranked rendezvous-link blame table. Weights are causal ticks, not wall
// clocks, so the report is byte-identical across runs of the same
// computation.
func runCriticalPath(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsanalyze critical-path", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tsanalyze:", err)
		return 1
	}
	files := fs.Args()
	if len(files) == 0 {
		return fail(fmt.Errorf("critical-path needs at least one event file"))
	}
	metas, _, res, err := readTraces(files)
	if err != nil {
		return fail(err)
	}
	printHeader(stdout, "critical-path", metas)
	if err := obs.CriticalPath(res.Trace, res.Stamps, metas[0].Dec.D()).WriteReport(stdout); err != nil {
		return fail(err)
	}
	return 0
}

// readTraces loads and merges event files — tsnode -obs-trace files or
// flight dumps — in canonical (proc, seq) order, and reconstructs the
// computation from them. Every file must carry the same decomposition, and
// since each process is hosted by exactly one node, no (proc, seq) pair may
// appear twice across the files, and every rendezvous peer's events must be
// among them.
func readTraces(files []string) ([]node.DumpMeta, []obs.Event, *core.Result, error) {
	var metas []node.DumpMeta
	var events []obs.Event
	read := make(map[[2]int]string)
	for _, name := range files {
		meta, evs, err := node.ReadFlightDump(name)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(metas) > 0 && (meta.Dec.N() != metas[0].Dec.N() || meta.Dec.String() != metas[0].Dec.String()) {
			return nil, nil, nil, fmt.Errorf("%s: topology/decomposition differs from %s", name, files[0])
		}
		for i, e := range evs {
			key := [2]int{e.Proc, e.Seq}
			if prev, dup := read[key]; dup {
				return nil, nil, nil, fmt.Errorf("%s record %d: process %d's seq %d was already read from %s", name, i+1, e.Proc, e.Seq, prev)
			}
			read[key] = name
		}
		metas = append(metas, meta)
		events = append(events, evs...)
	}
	// A process's events start at seq 0 (node.ReadFlightDump checks), so a
	// peer with no seq 0 is one no file carries.
	for _, e := range events {
		if _, ok := read[[2]int{e.Peer, 0}]; e.Peer >= 0 && !ok {
			return nil, nil, nil, fmt.Errorf("%s: process %d is a rendezvous peer of process %d, but no file carries its events: pass every node's event file",
				read[[2]int{e.Proc, e.Seq}], e.Peer, e.Proc)
		}
	}
	dec := metas[0].Dec
	obs.SortEvents(events)
	res, err := core.Reconstruct(dec, node.LogsFromEvents(dec.N(), events))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reconstructing the computation from the trace: %w", err)
	}
	return metas, events, res, nil
}

// printHeader prints a subcommand's first line: the files' nodes and the
// run's shape.
func printHeader(w io.Writer, cmd string, metas []node.DumpMeta) {
	nodes := make([]int, len(metas))
	for i, m := range metas {
		nodes[i] = m.Node
	}
	dec := metas[0].Dec
	fmt.Fprintf(w, "%s: %d file(s), nodes %v, N=%d processes, d=%d\n", cmd, len(metas), nodes, dec.N(), dec.D())
}
