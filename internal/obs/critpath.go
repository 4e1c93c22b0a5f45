package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"syncstamp/internal/vector"
)

// This file is the causal critical-path profiler: given the recorded events
// of a run (one node's trace or several merged), it reconstructs the
// happens-before DAG of the completed work from the stamps alone —
// Theorem 4 again: vector.Less IS the causal order — and extracts the
// longest weighted causal chain, per-process and per-link slack, and a
// ranked blame table of rendezvous links.
//
// Weights are causal ticks (stamp-sum growth), not wall clocks: the
// deterministic sinks of this package never carry wall time, so the report
// is byte-identical across runs of the same computation — the property
// every other obs artifact has, and the one that makes a profile diffable
// across PRs. A step's "+ticks" is how much of the final clock the step
// accounts for beyond its critical predecessor; the end-to-end length is
// the total causal work the slowest chain had to serialize.

// CritStep is one step of the critical path.
type CritStep struct {
	// Phase is PhaseAdopt for a rendezvous step, PhaseInternal for an
	// internal event riding the path.
	Phase Phase
	// Proc and Peer are the sender and receiver for a rendezvous step
	// (Peer is -1 for internal events).
	Proc, Peer int
	// Stamp is the step's agreed stamp.
	Stamp vector.V
	// Ticks is the causal-tick growth this step contributes along the
	// path: StampSum(Stamp) minus the previous step's sum.
	Ticks int64
}

// ProcSlack is one process's distance off the critical path.
type ProcSlack struct {
	Proc int
	// EndSum is the stamp sum of the process's causally latest event —
	// its causal-tick span.
	EndSum int64
	// Slack is Length − EndSum; 0 means the process ends on the critical
	// path.
	Slack int64
}

// LinkBlame is one directed rendezvous link's share of the critical path.
type LinkBlame struct {
	// From and To are the sender and receiver processes.
	From, To int
	// Msgs is how many messages the link carried in total.
	Msgs int
	// PathSteps and PathTicks are the link's steps on the critical path
	// and the causal ticks those steps contributed.
	PathSteps int
	PathTicks int64
	// Slack is Length minus the largest stamp sum the link reached; 0
	// means the link's latest message sits at the end of the critical
	// path.
	Slack int64
}

// CritPath is the full critical-path analysis of a run.
type CritPath struct {
	// Length is the end-to-end critical-path length in causal ticks — the
	// maximum stamp sum any event reached. It is ≥ every process's
	// causal-tick span by construction (a process's own program order is
	// one causal chain).
	Length int64
	// Steps is the critical path itself, causally ordered.
	Steps []CritStep
	// Procs is the per-process slack table, by process id.
	Procs []ProcSlack
	// Links is the blame table: every rendezvous link, ranked by path
	// ticks (descending), then slack (ascending), then link id.
	Links []LinkBlame
}

// critNode is one distinct completed-work stamp in the happens-before DAG.
type critNode struct {
	stamp vector.V
	sum   int64
	key   string
	// phase is PhaseAdopt for a rendezvous, PhaseInternal otherwise.
	phase Phase
	// from/to are sender→receiver for a rendezvous; proc/-1 for internal.
	from, to int
	// preds are the nodes the processes that reach this one held just
	// before it: its candidate critical predecessors.
	preds []int
}

// CriticalPath analyzes the completed work of the given events (merged from
// one or more traces; any order). Only completed-work phases — adopt,
// merge, internal — define DAG nodes; the SYN's pre-merge vector and the
// ACK's copy of the merged stamp are protocol intermediates, not work. The result is identical for every
// interleaving of the same computation.
func CriticalPath(events []Event) *CritPath {
	evs := append([]Event(nil), events...)
	SortEvents(evs)

	// Collect the distinct completed-work stamps, remembering each one's
	// classification and endpoints. A rendezvous stamp may also carry
	// later internal events (internal events do not advance the clock);
	// the rendezvous wins the classification. Events arrive in (proc, seq)
	// order, so each process's previous node is at hand: it is a candidate
	// predecessor of the process's next node.
	index := make(map[string]int)
	var nodes []critNode
	lastProc, last := -1, -1
	procEnd := make(map[int]int64) // proc -> max stamp sum it reached
	linkMsgs := make(map[[2]int]int)
	linkEnd := make(map[[2]int]int64)
	note := func(proc int, sum int64) {
		if sum > procEnd[proc] {
			procEnd[proc] = sum
		}
	}
	for _, e := range evs {
		if e.Phase != PhaseAdopt && e.Phase != PhaseMerge && e.Phase != PhaseInternal {
			continue
		}
		sum := StampSum(e.Stamp)
		note(e.Proc, sum)
		k := e.Stamp.String()
		i, ok := index[k]
		if !ok {
			i = len(nodes)
			index[k] = i
			nodes = append(nodes, critNode{
				stamp: e.Stamp, sum: sum, key: k,
				phase: PhaseInternal, from: e.Proc, to: -1,
			})
		}
		if e.Proc != lastProc {
			lastProc, last = e.Proc, -1
		}
		if last >= 0 && last != i && vector.Less(nodes[last].stamp, e.Stamp) {
			nodes[i].preds = append(nodes[i].preds, last)
		}
		last = i
		if e.Phase == PhaseAdopt || e.Phase == PhaseMerge {
			from, to := e.Proc, e.Peer
			if e.Phase == PhaseMerge {
				from, to = e.Peer, e.Proc
			}
			if nodes[i].phase != PhaseAdopt {
				nodes[i].phase = PhaseAdopt
				nodes[i].from, nodes[i].to = from, to
			}
		}
	}
	cp := &CritPath{}
	if len(nodes) == 0 {
		return cp
	}

	// Per-link totals over all messages (each message = one distinct
	// rendezvous stamp).
	for _, nd := range nodes {
		if nd.phase != PhaseAdopt {
			continue
		}
		l := [2]int{nd.from, nd.to}
		linkMsgs[l]++
		if nd.sum > linkEnd[l] {
			linkEnd[l] = nd.sum
		}
	}

	// The path's sink: the maximum stamp sum (ties broken by smallest
	// key — the stampRanks convention). Along any causal chain the sum
	// strictly grows, so the sink's sum is the end-to-end length and no
	// chain can exceed it.
	sink := 0
	for i := 1; i < len(nodes); i++ {
		if nodes[i].sum > nodes[sink].sum ||
			(nodes[i].sum == nodes[sink].sum && nodes[i].key < nodes[sink].key) {
			sink = i
		}
	}
	cp.Length = nodes[sink].sum

	// Walk the chain backwards: from each node, its critical predecessor
	// is the causally-preceding node with the largest sum (smallest key on
	// ties) — the tightest dependency, which attributes the smallest tick
	// delta to each step and so yields the longest chain realizing the
	// sink's clock. Sums strictly grow along a chain, and in a trace with
	// every process's events, every node below X lies at or below the node
	// some process reaching X held just before it. So that maximum is one
	// of X's candidates, or, when X has none, the all-zero node that
	// internal events before a process's first message record.
	zero := -1
	for i, nd := range nodes {
		if nd.sum == 0 && vector.Eq(nd.stamp, vector.New(len(nd.stamp))) {
			zero = i
		}
	}
	var chain []int
	for cur := sink; ; {
		chain = append(chain, cur)
		pred := -1
		for _, j := range nodes[cur].preds {
			if pred < 0 || nodes[j].sum > nodes[pred].sum ||
				(nodes[j].sum == nodes[pred].sum && nodes[j].key < nodes[pred].key) {
				pred = j
			}
		}
		if pred < 0 && zero >= 0 && vector.Less(nodes[zero].stamp, nodes[cur].stamp) {
			pred = zero
		}
		if pred < 0 {
			break
		}
		cur = pred
	}
	// chain is sink→source; reverse it and compute the tick deltas.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	linkPathSteps := make(map[[2]int]int)
	linkPathTicks := make(map[[2]int]int64)
	var prevSum int64
	for _, i := range chain {
		nd := nodes[i]
		step := CritStep{
			Phase: nd.phase, Proc: nd.from, Peer: nd.to,
			Stamp: nd.stamp, Ticks: nd.sum - prevSum,
		}
		prevSum = nd.sum
		cp.Steps = append(cp.Steps, step)
		if nd.phase == PhaseAdopt {
			l := [2]int{nd.from, nd.to}
			linkPathSteps[l]++
			linkPathTicks[l] += step.Ticks
		}
	}

	// Per-process slack, ordered by process id.
	var procs []int
	for p := range procEnd {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		cp.Procs = append(cp.Procs, ProcSlack{Proc: p, EndSum: procEnd[p], Slack: cp.Length - procEnd[p]})
	}

	// Blame table: every link, ranked by path ticks desc, slack asc, link.
	var links [][2]int
	for l := range linkMsgs {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	for _, l := range links {
		cp.Links = append(cp.Links, LinkBlame{
			From: l[0], To: l[1], Msgs: linkMsgs[l],
			PathSteps: linkPathSteps[l], PathTicks: linkPathTicks[l],
			Slack: cp.Length - linkEnd[l],
		})
	}
	sort.SliceStable(cp.Links, func(i, j int) bool {
		a, b := cp.Links[i], cp.Links[j]
		if a.PathTicks != b.PathTicks {
			return a.PathTicks > b.PathTicks
		}
		if a.Slack != b.Slack {
			return a.Slack < b.Slack
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return cp
}

// WriteReport renders the analysis as the deterministic text report
// `tsanalyze critical-path` prints: same events in, same bytes out.
func (c *CritPath) WriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "critical path: %d causal ticks end-to-end over %d steps\n", c.Length, len(c.Steps))
	for i, s := range c.Steps {
		what := fmt.Sprintf("internal P%d", s.Proc)
		if s.Phase == PhaseAdopt {
			what = fmt.Sprintf("m P%d→P%d", s.Proc, s.Peer)
		}
		fmt.Fprintf(bw, "  %3d  +%-4d %-16s %v\n", i+1, s.Ticks, what, s.Stamp)
	}
	fmt.Fprintln(bw, "per-process slack:")
	fmt.Fprintln(bw, "  proc   end-sum   slack")
	for _, p := range c.Procs {
		fmt.Fprintf(bw, "  P%-5d %-9d %d\n", p.Proc, p.EndSum, p.Slack)
	}
	fmt.Fprintln(bw, "rendezvous-link blame (ranked by critical-path ticks):")
	fmt.Fprintln(bw, "  link       msgs   path-steps   path-ticks   slack")
	for _, l := range c.Links {
		fmt.Fprintf(bw, "  P%d→P%-5d %-6d %-12d %-12d %d\n",
			l.From, l.To, l.Msgs, l.PathSteps, l.PathTicks, l.Slack)
	}
	return bw.Flush()
}
