// Command tsnode runs one node of a distributed timestamped computation:
// it hosts the processes placed on it, speaks the internal/wire rendezvous
// protocol with its peer nodes over TCP, and — on the collector node —
// gathers every node's rendezvous logs, reconstructs the global
// computation, and verifies the stamps against a sequential replay and the
// ground-truth message poset.
//
// Usage (a 2-process ping over two nodes):
//
//	tsnode -node 0 -addrs 127.0.0.1:7000,127.0.0.1:7001 -topology path:2 \
//	       -placement 0,1 -program '0: send 1; 1: recvfrom 0' -collect -verify &
//	tsnode -node 1 -addrs 127.0.0.1:7000,127.0.0.1:7001 -topology path:2 \
//	       -placement 0,1 -program '0: send 1; 1: recvfrom 0'
//
// Every node of a run must be given identical -topology, -extra-edges,
// -decomp, and -placement values; the HELLO handshake digest rejects
// mismatches. The program script assigns each process its operations:
// processes are separated by ';', operations by ',', and each operation is
// one of "send Q", "recv", "recvfrom Q", or "internal NOTE".
//
// Observability: -obs-addr serves /metrics (JSON), /healthz, /debug/flight,
// and net/http/pprof for the duration of the run; -obs-trace writes the
// node's event file after the run: a flight dump of every event, with the
// node's wire accounting in its meta record. The flight recorder (-flight,
// on by default) keeps a bounded ring of each hosted process's recent
// events and dumps them to -flight-dump on failure, peer loss, SIGQUIT, and
// end of run — the causal post-mortem for runs that died too hard to write
// a trace. With -obs-trace the one recorder keeps every event instead, the
// dumps hold the whole run, and the end-of-run dump is byte-identical to
// the -obs-trace file. "tsanalyze trace-report" and "tsanalyze
// critical-path" read both. On the collector node, /metrics serves the
// cluster rollup after a collect: every reporting node's registry (and
// every collector-tree leaf's shard registry) merged into one view.
//
// Chaos and recovery: every node speaks the loss-tolerant protocol — dedup,
// session-resuming reconnects, and SYN retransmission paced by the
// internal/sync synchronizer, vectors delta-encoded on every connection.
// -fault-plan wraps the transport with the deterministic internal/fault
// injector (same plan + seed → same faults), and -jitter-profile adds
// seeded link latency to it; -journal names a crash-recovery journal so a
// killed node, restarted with identical flags, replays its committed
// operations and resumes the run; -on-peer-loss picks what survivors do
// about a peer that stays gone or unresponsive (abort, wait, exclude). Any
// of these flags floors the per-peer adaptive RTO at -retransmit-min and
// prints each peer's health summary after the run; without them the
// floor is -rendezvous-timeout, so a run over lossless TCP never
// retransmits and any connection error aborts it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/fault"
	"syncstamp/internal/graph"
	"syncstamp/internal/node"
	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/topospec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsnode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodeIdx := fs.Int("node", -1, "this node's index into -addrs")
	addrsFlag := fs.String("addrs", "", "comma-separated listen addresses, one per node")
	topoFlag := fs.String("topology", "", "communication topology ("+`see "tsgen -help" for specs`+")")
	extraEdges := fs.String("extra-edges", "", "additional channels as A-B pairs, comma-separated (e.g. 0-1,2-3)")
	decompFile := fs.String("decomp", "", "edge decomposition file (default: Figure 7 on the topology)")
	placementFlag := fs.String("placement", "", "comma-separated node index per process")
	programFlag := fs.String("program", "", "per-process scripts: '0: send 1, internal x; 1: recvfrom 0'")
	collect := fs.Bool("collect", false, "collect all nodes' logs and reconstruct the global computation")
	collector := fs.Int("collector", 0, "node that collects (all nodes must agree)")
	verify := fs.Bool("verify", false, "with -collect: check stamps against the sequential replay and the message poset")
	handshake := fs.Duration("handshake-timeout", 10*time.Second, "connection + HELLO deadline")
	rendezvous := fs.Duration("rendezvous-timeout", 10*time.Second, "per-send ACK deadline")
	collectWait := fs.Duration("collect-timeout", 30*time.Second, "with -collect: deadline for all reports")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /healthz, and pprof on this address (e.g. 127.0.0.1:0)")
	obsTrace := fs.String("obs-trace", "", "write this node's event file (every event, for tsanalyze) here after the run")
	faultPlanFlag := fs.String("fault-plan", "", "JSON fault-injection plan; wraps the transport with the deterministic internal/fault injector (floors the RTO at -retransmit-min)")
	journalFlag := fs.String("journal", "", "crash-recovery journal file; a restarted node replays it and resumes the session (floors the RTO at -retransmit-min)")
	onPeerLoss := fs.String("on-peer-loss", "abort", "policy for a peer unreachable past -reconnect-window: abort, wait, or exclude")
	reconnectWindow := fs.Duration("reconnect-window", 10*time.Second, "how long a lost peer may stay unreachable before -on-peer-loss applies")
	retransmitMin := fs.Duration("retransmit-min", tssync.DefaultRTOMin, "floor of the adaptive SYN retransmission timeout")
	jitterProfile := fs.String("jitter-profile", "", `inject link latency jitter: "fixed|lognormal|pareto[:meanMs[:shape]]" (implies the fault injector)`)
	flight := fs.Int("flight", 4096, "flight recorder capacity in events, split evenly into one ring per hosted process (0 disables it)")
	flightDump := fs.String("flight-dump", "", "dump the flight recorder here (an event file, for tsanalyze) on failure, peer loss, SIGQUIT, and end of run")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "tsnode:", err)
		return 1
	}

	policy, err := node.ParsePeerLossPolicy(*onPeerLoss)
	if err != nil {
		return fail(err)
	}

	addrs := strings.Split(*addrsFlag, ",")
	if *addrsFlag == "" || len(addrs) < 2 {
		return fail(fmt.Errorf("-addrs needs at least two comma-separated addresses"))
	}
	if *nodeIdx < 0 || *nodeIdx >= len(addrs) {
		return fail(fmt.Errorf("-node %d out of range for %d addresses", *nodeIdx, len(addrs)))
	}
	if *topoFlag == "" {
		return fail(fmt.Errorf("-topology is required"))
	}
	g, err := topospec.Parse(*topoFlag)
	if err != nil {
		return fail(err)
	}
	if err := addExtraEdges(g, *extraEdges); err != nil {
		return fail(err)
	}
	var dec *decomp.Decomposition
	if *decompFile != "" {
		f, err := os.Open(*decompFile)
		if err != nil {
			return fail(err)
		}
		dec, err = decomp.ReadText(f)
		_ = f.Close() // read-only file
		if err != nil {
			return fail(err)
		}
	} else {
		dec = decomp.Best(g)
	}
	if err := dec.Validate(g); err != nil {
		return fail(err)
	}
	placement, err := parsePlacement(*placementFlag, g.N(), len(addrs))
	if err != nil {
		return fail(err)
	}
	programs, err := parseProgram(*programFlag, g.N())
	if err != nil {
		return fail(err)
	}

	tcp, err := node.NewTCPTransport(addrs[*nodeIdx])
	if err != nil {
		return fail(err)
	}
	tcp.SetPeers(addrs)

	// Only a trace export keeps every event; -obs-addr alone serves the
	// flight recorder's rings, which node.New adds.
	var o *obs.Obs
	if *obsAddr != "" || *obsTrace != "" {
		o = &obs.Obs{Metrics: obs.NewRegistry(), Clock: obs.Wall()}
		if *obsTrace != "" {
			o.Recorder = obs.NewRecorder(0)
		}
		tcp.Retries = o.Registry().Counter(obs.MetricDialRetries)
	}

	// Chaos mode: wrap the transport with the deterministic fault injector.
	// A scheduled crash exits hard (the kill -9 idiom) so the journal, not a
	// clean shutdown path, is what the restarted incarnation recovers from.
	var tr node.Transport = tcp
	var ftr *fault.Transport
	var nd *node.Node // set below; the crash hook dumps its flight recorder
	var plan *fault.Plan
	if *faultPlanFlag != "" {
		plan, err = fault.ReadPlanFile(*faultPlanFlag)
		if err != nil {
			return fail(err)
		}
	}
	if *jitterProfile != "" {
		spec, err := fault.ParseJitterProfile(*jitterProfile)
		if err != nil {
			return fail(err)
		}
		if plan == nil {
			plan = &fault.Plan{}
		}
		plan.ApplyJitter(spec)
		if err := plan.Validate(); err != nil {
			return fail(err)
		}
	}
	if plan != nil {
		ftr = fault.New(tcp, plan, *nodeIdx)
		ftr.CrashFn = func() {
			fmt.Fprintf(stderr, "tsnode: node %d crashing on schedule\n", *nodeIdx)
			if nd != nil && nd.DumpFlight() {
				fmt.Fprintf(stderr, "tsnode: flight dump written to %s\n", *flightDump)
			}
			os.Exit(137)
		}
		tr = ftr
	}

	// Any chaos/recovery flag tunes the loss-tolerant protocol. The plain
	// invocation leaves Recovery nil: abort on peer loss, and an RTO floored
	// at the rendezvous deadline, so lossless TCP sees no retransmission.
	var rec *node.RecoveryConfig
	if *journalFlag != "" || plan != nil || policy != node.PeerLossAbort {
		rec = &node.RecoveryConfig{
			OnPeerLoss:      policy,
			ReconnectWindow: *reconnectWindow,
			Async:           &tssync.Config{RTOMin: *retransmitMin},
		}
	}
	var journalRecs []node.JournalRecord
	if *journalFlag != "" {
		j, recs, err := node.OpenJournal(*journalFlag)
		if err != nil {
			return fail(err)
		}
		defer func() {
			_ = j.Close() // every Append returned durable; nothing to flush
		}()
		rec.Journal = j
		journalRecs = recs
	}
	n, err := node.New(node.Config{
		Node:              *nodeIdx,
		Placement:         placement,
		Dec:               dec,
		HandshakeTimeout:  *handshake,
		RendezvousTimeout: *rendezvous,
		Obs:               o,
		Recovery:          rec,
		FlightRecorder:    *flight,
		FlightDump:        *flightDump,
	}, tr)
	if err != nil {
		return fail(err)
	}
	defer n.Close()
	nd = n

	// Served only now that node.New has finished filling in o. New does not
	// dial: the HELLO handshake runs in Run, and the endpoints answer
	// throughout it.
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, o)
		if err != nil {
			return fail(err)
		}
		defer func() {
			_ = srv.Close() // best-effort teardown on exit
		}()
		fmt.Fprintf(stdout, "tsnode: observability on http://%s\n", srv.Addr())
	}

	// SIGQUIT takes a flight dump on demand — the classic "what is this
	// stuck process doing" probe — without killing the run. Only installed
	// when there is somewhere to dump to; otherwise SIGQUIT keeps its
	// default goroutine-dump-and-exit behavior.
	if *flight > 0 && *flightDump != "" {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGQUIT)
		defer signal.Stop(sigc)
		go func() {
			for range sigc {
				if n.DumpFlight() {
					fmt.Fprintf(stderr, "tsnode: flight dump written to %s\n", *flightDump)
				}
			}
		}()
	}

	var resume map[int]int
	if rec != nil && rec.Journal != nil {
		resume, err = n.Restore(journalRecs)
		if err != nil {
			return fail(err)
		}
		if restarts := rec.Journal.Restarts(); restarts > 0 {
			fmt.Fprintf(stdout, "tsnode: restart #%d — resumed %d committed operations from the journal\n",
				restarts, len(journalRecs))
		}
	}

	info, err := n.Run(buildPrograms(programs, resume))
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "tsnode: node %d hosting %v — run complete\n", *nodeIdx, n.Local())
	printOverhead(stdout, info.Overhead)
	if info.Dropped > 0 {
		fmt.Fprintf(stdout, "tsnode: dropped %d unexpected frames\n", info.Dropped)
	}
	if info.Retransmits+info.Reconnects+info.Deduped > 0 {
		fmt.Fprintf(stdout, "tsnode: recovery: %d retransmits, %d reconnects, %d duplicates suppressed\n",
			info.Retransmits, info.Reconnects, info.Deduped)
	}
	if len(info.Excluded) > 0 {
		fmt.Fprintf(stdout, "tsnode: peers excluded from the run: %v\n", info.Excluded)
	}
	if rec != nil {
		fmt.Fprintf(stdout, "tsnode: sync: %d spurious retransmits, %d suspicions\n",
			info.Spurious, info.Suspicions)
		for j := 0; j < len(addrs); j++ {
			st, ok := info.PeerRTT[j]
			if !ok {
				continue
			}
			fmt.Fprintf(stdout, "tsnode: sync: peer %d %s — srtt %v, rto %v, p50 %v, p99 %v over %d samples\n",
				j, info.PeerHealth[j], time.Duration(st.SRTTNS), time.Duration(st.RTONS),
				time.Duration(st.P50NS), time.Duration(st.P99NS), st.Samples)
		}
	}
	if info.JournalAppends > 0 {
		fmt.Fprintf(stdout, "tsnode: journal: %d records committed in %d fsync batches\n",
			info.JournalAppends, info.JournalSyncs)
	}
	if ftr != nil {
		st := ftr.Stats()
		fmt.Fprintf(stdout, "tsnode: faults injected: %d dropped, %d duplicated, %d reordered, %d delayed, %d resets\n",
			st.Dropped, st.Duplicated, st.Reordered, st.Delayed, st.Resets)
	}
	if *obsTrace != "" {
		meta := node.DumpMeta{Node: *nodeIdx, Dec: dec, Frames: info.Frames}
		if err := node.WriteFlightDump(*obsTrace, meta, o.Recorder.Events()); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "tsnode: trace written to %s\n", *obsTrace)
	}

	if !*collect {
		if err := n.SendReport(*collector, info); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "tsnode: logs reported to node %d\n", *collector)
		return 0
	}

	res, err := n.Collect(info, *collectWait)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "reconstructed computation: %d messages, %d internal events\n",
		res.Trace.NumMessages(), len(res.Internal))
	msgs := res.Trace.Messages()
	for m, op := range msgs {
		fmt.Fprintf(stdout, "  m%-3d %d->%d  %v\n", m, op.From, op.To, res.Stamps[m])
	}
	if *verify {
		if err := check.Verify(res, dec); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "verified: distributed stamps match the sequential replay and characterize the message order exactly")
	}
	return 0
}

// addExtraEdges adds "A-B" channels to a parsed topology.
func addExtraEdges(g *graph.Graph, spec string) error {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		ab := strings.SplitN(strings.TrimSpace(part), "-", 2)
		if len(ab) != 2 {
			return fmt.Errorf("bad edge %q in -extra-edges (want A-B)", part)
		}
		a, err1 := strconv.Atoi(ab[0])
		b, err2 := strconv.Atoi(ab[1])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad edge %q in -extra-edges (want A-B)", part)
		}
		if a < 0 || a >= g.N() || b < 0 || b >= g.N() || a == b {
			return fmt.Errorf("edge %q out of range for %d processes", part, g.N())
		}
		if !g.HasEdge(a, b) {
			g.AddEdge(a, b)
		}
	}
	return nil
}

// parsePlacement parses the per-process node assignment.
func parsePlacement(spec string, procs, nodes int) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-placement is required")
	}
	parts := strings.Split(spec, ",")
	if len(parts) != procs {
		return nil, fmt.Errorf("-placement names %d processes, topology has %d", len(parts), procs)
	}
	placement := make([]int, procs)
	seen := make([]bool, nodes)
	for i, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 || v >= nodes {
			return nil, fmt.Errorf("bad -placement entry %q for %d nodes", part, nodes)
		}
		placement[i] = v
		seen[v] = true
	}
	for nd, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("-placement leaves node %d without processes", nd)
		}
	}
	return placement, nil
}

// progOp is one parsed script operation.
type progOp struct {
	kind string // "send" | "recv" | "recvfrom" | "internal"
	arg  int
	note string
}

// parseProgram parses the per-process script: sections separated by ';',
// each "P: op, op, ...".
func parseProgram(spec string, procs int) (map[int][]progOp, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-program is required")
	}
	out := make(map[int][]progOp)
	for _, section := range strings.Split(spec, ";") {
		section = strings.TrimSpace(section)
		if section == "" {
			continue
		}
		head, body, found := strings.Cut(section, ":")
		if !found {
			return nil, fmt.Errorf("program section %q lacks a 'P:' prefix", section)
		}
		p, err := strconv.Atoi(strings.TrimSpace(head))
		if err != nil || p < 0 || p >= procs {
			return nil, fmt.Errorf("bad process %q in program (topology has %d)", head, procs)
		}
		if _, dup := out[p]; dup {
			return nil, fmt.Errorf("process %d scripted twice", p)
		}
		var ops []progOp
		for _, field := range strings.Split(body, ",") {
			words := strings.Fields(field)
			if len(words) == 0 {
				continue
			}
			op := progOp{kind: strings.ToLower(words[0])}
			switch op.kind {
			case "send", "recvfrom":
				if len(words) != 2 {
					return nil, fmt.Errorf("%q needs exactly one peer argument", field)
				}
				q, err := strconv.Atoi(words[1])
				if err != nil || q < 0 || q >= procs {
					return nil, fmt.Errorf("bad peer %q in %q", words[1], field)
				}
				if q == p {
					return nil, fmt.Errorf("%q in process %d's script names the process itself", strings.TrimSpace(field), p)
				}
				op.arg = q
			case "recv":
				if len(words) != 1 {
					return nil, fmt.Errorf("%q takes no argument", field)
				}
			case "internal":
				if len(words) < 2 {
					return nil, fmt.Errorf("%q needs a note", field)
				}
				op.note = strings.Join(words[1:], " ")
			default:
				return nil, fmt.Errorf("unknown operation %q (want send/recv/recvfrom/internal)", words[0])
			}
			ops = append(ops, op)
		}
		if len(ops) == 0 {
			return nil, fmt.Errorf("process %d's script is empty", p)
		}
		out[p] = ops
	}
	return out, nil
}

// buildPrograms turns parsed scripts into runnable programs. resume (from a
// journal Restore) names how many leading operations each process already
// committed before the crash; those are skipped, and the journal-rebuilt
// clock carries their effect.
func buildPrograms(scripts map[int][]progOp, resume map[int]int) map[int]func(*node.Process) error {
	programs := make(map[int]func(*node.Process) error, len(scripts))
	for p, ops := range scripts {
		ops := ops
		if done := resume[p]; done > 0 {
			if done > len(ops) {
				done = len(ops)
			}
			ops = ops[done:]
		}
		programs[p] = func(proc *node.Process) error {
			for _, op := range ops {
				var err error
				switch op.kind {
				case "send":
					_, err = proc.Send(op.arg)
				case "recv":
					_, err = proc.Recv()
				case "recvfrom":
					_, err = proc.RecvFrom(op.arg)
				case "internal":
					proc.Internal(op.note)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	return programs
}

// printOverhead renders the node's wire-piggyback account.
func printOverhead(w io.Writer, o core.Overhead) {
	if o.Frames == 0 {
		fmt.Fprintln(w, "wire overhead: no remote rendezvous")
		return
	}
	fmt.Fprintf(w, "wire overhead: %d vector frames, %d bytes on the wire vs %d dense (%.0f%% saved)\n",
		o.Frames, o.WireBytes, o.DenseBytes, 100*o.Savings())
}
