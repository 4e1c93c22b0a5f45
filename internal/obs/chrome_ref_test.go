package obs

import "syncstamp/internal/vector"

// stampRanksKahn is the Chrome ranking as it was before it became a sort:
// Kahn's algorithm over the all-pairs vector.Less DAG of the distinct
// stamps, taking the ready stamp with the smallest component sum, then the
// smallest rendering. It stays here as the reference TestStampRanksMatchKahn
// compares stampRanks against.
func stampRanksKahn(events []Event) map[string]int {
	var stamps []vector.V
	var keys []string
	index := make(map[string]int)
	for _, e := range events {
		k := e.Stamp.String()
		if _, ok := index[k]; !ok {
			index[k] = len(stamps)
			stamps = append(stamps, e.Stamp)
			keys = append(keys, k)
		}
	}
	n := len(stamps)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && vector.Less(stamps[i], stamps[j]) {
				succ[i] = append(succ[i], j)
				indeg[j]++
			}
		}
	}
	sum := func(i int) int {
		s := 0
		for _, x := range stamps[i] {
			s += x
		}
		return s
	}
	before := func(i, j int) bool {
		si, sj := sum(i), sum(j)
		if si != sj {
			return si < sj
		}
		return keys[i] < keys[j]
	}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	ranks := make(map[string]int, n)
	for rank := 0; rank < n; rank++ {
		best := 0
		for i := 1; i < len(ready); i++ {
			if before(ready[i], ready[best]) {
				best = i
			}
		}
		cur := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		ranks[keys[cur]] = rank
		for _, s := range succ[cur] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return ranks
}
