// Package monitor implements the applications the paper's introduction
// motivates for message/event timestamps: distributed monitoring (detecting
// concurrency and race-like conflicts for debuggers such as POET and XPVM),
// global-property evaluation (consistent cuts for predicate detection), and
// fault tolerance (orphan detection for optimistic recovery à la
// Strom–Yemini and Damani–Garg). Every function works purely on timestamps;
// no global state or extra communication is needed — that is the point of
// the timestamping machinery.
package monitor

import (
	"fmt"
	"sort"

	"syncstamp/internal/core"
	"syncstamp/internal/vector"
)

// Pair is an unordered pair of indices with I < J.
type Pair struct {
	I, J int
}

// ConcurrentMessages returns every pair of concurrent messages, identified
// from their timestamps alone (the visualization primitive of Section 1).
// Pairs are sorted lexicographically.
func ConcurrentMessages(stamps []vector.V) []Pair {
	var out []Pair
	for i := 0; i < len(stamps); i++ {
		for j := i + 1; j < len(stamps); j++ {
			if vector.Concurrent(stamps[i], stamps[j]) {
				out = append(out, Pair{I: i, J: j})
			}
		}
	}
	return out
}

// CriticalPath returns the length of the longest synchronous chain
// (m1 ↦ m2 ↦ ... ↦ mk) derivable from the timestamps, along with one
// witness chain of message indices. For profiling: the chain is the
// computation's critical path of rendezvous.
func CriticalPath(stamps []vector.V) (int, []int) {
	n := len(stamps)
	if n == 0 {
		return 0, nil
	}
	// Longest path in the DAG of stamp order; process in a topological
	// order obtained by sorting on the sum of components (any linear
	// extension of the stamp order works: v1 < v2 implies sum1 < sum2).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sum := func(v vector.V) int {
		s := 0
		for _, x := range v {
			s += x
		}
		return s
	}
	sort.Slice(idx, func(a, b int) bool { return sum(stamps[idx[a]]) < sum(stamps[idx[b]]) })
	longest := make([]int, n)
	prev := make([]int, n)
	for i := range prev {
		longest[i] = 1
		prev[i] = -1
	}
	for ai := 0; ai < n; ai++ {
		a := idx[ai]
		for bi := ai + 1; bi < n; bi++ {
			b := idx[bi]
			if vector.Less(stamps[a], stamps[b]) && longest[a]+1 > longest[b] {
				longest[b] = longest[a] + 1
				prev[b] = a
			}
		}
	}
	best := 0
	for i := 1; i < n; i++ {
		if longest[i] > longest[best] {
			best = i
		}
	}
	var chain []int
	for cur := best; cur != -1; cur = prev[cur] {
		chain = append(chain, cur)
	}
	for l, r := 0, len(chain)-1; l < r; l, r = l+1, r-1 {
		chain[l], chain[r] = chain[r], chain[l]
	}
	return longest[best], chain
}

// Conflict is a pair of concurrent internal events touching the same
// resource — a data race in a monitoring sense.
type Conflict struct {
	A, B     int // indices into the events slice
	Resource string
}

// FindConflicts reports concurrent internal events that share a resource
// label, using only their Section 5 stamps. Events and resources must have
// equal length.
func FindConflicts(events []core.EventStamp, resources []string) ([]Conflict, error) {
	if len(events) != len(resources) {
		return nil, fmt.Errorf("monitor: %d events but %d resource labels", len(events), len(resources))
	}
	var out []Conflict
	for i := 0; i < len(events); i++ {
		for j := i + 1; j < len(events); j++ {
			if resources[i] != resources[j] {
				continue
			}
			if events[i].ConcurrentWith(events[j]) {
				out = append(out, Conflict{A: i, B: j, Resource: resources[i]})
			}
		}
	}
	return out, nil
}

// ConsistentCut reports whether the given internal events form a consistent
// cut: no event in the cut happened before another (they are pairwise
// concurrent), so they can be part of one global snapshot for predicate
// evaluation.
func ConsistentCut(events []core.EventStamp) bool {
	for i := 0; i < len(events); i++ {
		for j := 0; j < len(events); j++ {
			if i != j && events[i].HappenedBefore(events[j]) {
				return false
			}
		}
	}
	return true
}

// Orphans computes the orphan set for optimistic recovery: given the
// timestamps of all messages and the timestamps of the messages a failed
// process produced after its last checkpoint (the "lost" messages), a
// message is orphaned when its timestamp dominates a lost message's — it
// causally depends on rolled-back state and must be rolled back too.
// The failed process's own lost messages are orphans by definition; the
// result is the sorted set of message indices to undo.
func Orphans(stamps []vector.V, lost []vector.V) []int {
	orphan := make(map[int]bool)
	for i, s := range stamps {
		for _, l := range lost {
			if vector.Eq(l, s) || vector.Less(l, s) {
				orphan[i] = true
				break
			}
		}
	}
	out := make([]int, 0, len(orphan))
	for i := range orphan {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
