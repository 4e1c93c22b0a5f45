package obs

import (
	"sort"

	"syncstamp/internal/vector"
)

// critNode is one distinct completed-work stamp in the happens-before DAG
// the reference walk rebuilds from the events.
type critNode struct {
	stamp vector.V
	sum   int64
	key   string
	// phase is PhaseAdopt for a rendezvous, PhaseInternal otherwise.
	phase Phase
	// from/to are sender→receiver for a rendezvous; proc/-1 for internal.
	from, to int
}

// criticalPathQuadratic is the critical-path analysis of a run's events
// before it became a walk over the reconstructed run: it rebuilds the
// happens-before DAG from the stamps alone, and each step of the backward
// walk scans every node for the causally-preceding one with the largest
// sum. It stays here as the reference the differential test compares
// CriticalPath against.
func criticalPathQuadratic(events []Event) *CritPath {
	evs := append([]Event(nil), events...)
	SortEvents(evs)

	// Collect the distinct completed-work stamps, remembering each one's
	// classification and endpoints. A rendezvous stamp may also carry
	// later internal events (internal events do not advance the clock);
	// the rendezvous wins the classification.
	index := make(map[string]int)
	var nodes []critNode
	procEnd := make(map[int]int64) // proc -> max stamp sum it reached
	linkMsgs := make(map[[2]int]int)
	linkEnd := make(map[[2]int]int64)
	early := make(map[int]bool) // procs with an internal event before their first message
	note := func(proc int, sum int64) {
		if end, ok := procEnd[proc]; !ok || sum > end {
			procEnd[proc] = sum
		}
		if sum == 0 {
			early[proc] = true
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
	// sink's clock. The all-zero node of internal events before a first
	// message precedes a message only when one of its participants
	// recorded such an event, and is then named for the smaller such one.
	var chain []int
	for cur := sink; ; {
		chain = append(chain, cur)
		pred := -1
		from, to := nodes[cur].from, nodes[cur].to
		for j := range nodes {
			if j == cur || !vector.Less(nodes[j].stamp, nodes[cur].stamp) {
				continue
			}
			if nodes[j].sum == 0 && !early[from] && !early[to] {
				continue
			}
			if pred < 0 || nodes[j].sum > nodes[pred].sum ||
				(nodes[j].sum == nodes[pred].sum && nodes[j].key < nodes[pred].key) {
				pred = j
			}
		}
		if pred < 0 {
			break
		}
		if nodes[pred].sum == 0 {
			nodes[pred].from = from
			if !early[from] || (early[to] && to < from) {
				nodes[pred].from = to
			}
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
