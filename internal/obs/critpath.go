package obs

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"

	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

// This file is the causal critical-path profiler: given a reconstructed run
// (the computation core.Reconstruct rebuilds from every node's event file,
// with its message stamps), it walks the run's per-process operation order
// and extracts the longest weighted causal chain, per-process and per-link
// slack, and a ranked blame table of rendezvous links.
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

// CriticalPath analyzes a reconstructed run: tr is the computation, in any
// linearization, and stamps[k] is the agreed stamp of tr's k-th message
// (aligned with tr.Messages()), in vectors of d components. The result
// depends only on each process's order of operations and on the stamps, so
// it is identical for every interleaving of the same computation.
func CriticalPath(tr *trace.Trace, stamps []vector.V, d int) *CritPath {
	msgs := tr.Messages()
	sums := make([]int64, len(stamps))
	for k, v := range stamps {
		sums[k] = StampSum(v)
	}
	// pick returns the preferred of two messages (-1 is none): the larger
	// sum, then the smaller rendering.
	pick := func(a, b int) int {
		switch {
		case a < 0:
			return b
		case b < 0 || sums[a] > sums[b]:
			return a
		case sums[a] < sums[b] || stamps[b].String() < stamps[a].String():
			return b
		}
		return a
	}

	// One pass in trace order. A message's candidate critical predecessors
	// are the messages its two participants took part in just before it.
	// Sums strictly grow along a causal chain, and every message below m
	// lies at or below one of the two, so the preferred candidate is the
	// causally-preceding message with the largest sum: the tightest
	// dependency, which attributes the smallest tick delta to each step and
	// so yields the longest chain realizing the sink's clock.
	prev := make([]int, tr.N) // each process's previous message; -1 = none yet
	for p := range prev {
		prev[p] = -1
	}
	early := make([]bool, tr.N) // an internal event before the process's first message
	pred := make([]int, 0, len(msgs))
	for _, op := range tr.Ops {
		switch op.Kind {
		case trace.OpMessage:
			k := len(pred)
			pred = append(pred, pick(prev[op.From], prev[op.To]))
			prev[op.From], prev[op.To] = k, k
		case trace.OpInternal:
			early[op.Proc] = early[op.Proc] || prev[op.Proc] < 0
		}
	}

	// The path's sink is the message with the largest sum: no chain can
	// exceed it, so its sum is the end-to-end length. Walk back from it to
	// a message with no candidate, the first of both its participants. The
	// all-zero internal step opens the path when one of them recorded an
	// internal event before it (the smaller id if both did); a run without
	// messages is that step alone, on its smallest process.
	cp := &CritPath{}
	sink := -1
	for k := range msgs {
		sink = pick(sink, k)
	}
	var chain []int
	for cur := sink; cur >= 0; cur = pred[cur] {
		chain = append(chain, cur)
	}
	slices.Reverse(chain)
	opener := slices.Index(early, true)
	if len(chain) > 0 {
		m := msgs[chain[0]]
		opener = -1
		for _, p := range [2]int{max(m.From, m.To), min(m.From, m.To)} {
			if early[p] {
				opener = p
			}
		}
	}
	if opener >= 0 {
		cp.Steps = append(cp.Steps, CritStep{Phase: PhaseInternal, Proc: opener, Peer: -1, Stamp: vector.New(d)})
	}
	if sink >= 0 {
		cp.Length = sums[sink]
	}

	// Per-link totals over all messages, then the path's share of each.
	link := make(map[[2]int]int) // (from, to) -> index in cp.Links
	for k, m := range msgs {
		i, ok := link[[2]int{m.From, m.To}]
		if !ok {
			i = len(cp.Links)
			link[[2]int{m.From, m.To}] = i
			cp.Links = append(cp.Links, LinkBlame{From: m.From, To: m.To, Slack: cp.Length})
		}
		cp.Links[i].Msgs++
		cp.Links[i].Slack = min(cp.Links[i].Slack, cp.Length-sums[k])
	}
	var prevSum int64
	for _, k := range chain {
		m := msgs[k]
		cp.Steps = append(cp.Steps, CritStep{
			Phase: PhaseAdopt, Proc: m.From, Peer: m.To,
			Stamp: stamps[k], Ticks: sums[k] - prevSum,
		})
		prevSum = sums[k]
		l := &cp.Links[link[[2]int{m.From, m.To}]]
		l.PathSteps++
		l.PathTicks += cp.Steps[len(cp.Steps)-1].Ticks
	}

	// Per-process slack, by process id, for every process with an event: a
	// process's causally latest event is its last message, and one that
	// never sent or received spans no ticks.
	for p, k := range prev {
		var end int64
		if k >= 0 {
			end = sums[k]
		} else if !early[p] {
			continue
		}
		cp.Procs = append(cp.Procs, ProcSlack{Proc: p, EndSum: end, Slack: cp.Length - end})
	}

	// Blame table: ranked by path ticks desc, slack asc, then link.
	sort.Slice(cp.Links, func(i, j int) bool {
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
// `tsanalyze critical-path` prints: same computation in, same bytes out.
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
