package decomp

import (
	"fmt"
	"slices"

	"syncstamp/internal/graph"
)

// Extend returns a copy of d over a (possibly larger) vertex count with new
// edges attached to existing star groups: assign maps each new edge to the
// index of the group that absorbs it. Each assigned edge must be incident
// to its star group's root; triangle groups cannot absorb edges (a triangle
// is exactly its three edges).
//
// This realizes the paper's scalability remark (Section 3.3): when the
// system grows without changing the size of its edge decomposition — a new
// client connecting to existing servers, a new leaf under an existing tree
// root — the vector-clock size d stays constant, and timestamps issued
// before the growth remain valid and comparable with those issued after.
func (d *Decomposition) Extend(n int, assign map[graph.Edge]int) (*Decomposition, error) {
	if n < d.n {
		return nil, fmt.Errorf("decomp: cannot shrink from %d to %d vertices", d.n, n)
	}
	groups := make([]Group, len(d.groups))
	for i, g := range d.groups {
		groups[i] = Group{
			Kind:  g.Kind,
			Root:  g.Root,
			Tri:   g.Tri,
			Edges: append([]graph.Edge(nil), g.Edges...),
		}
	}
	// Iterate the assignment in sorted edge order: the appended edge order
	// (and the edge blamed when several are invalid) must not depend on map
	// iteration order, or replays stop being byte-identical.
	newEdges := make([]graph.Edge, 0, len(assign))
	for e := range assign {
		newEdges = append(newEdges, e)
	}
	slices.SortFunc(newEdges, graph.CompareEdges)
	for _, e := range newEdges {
		gi := assign[e]
		if e.V >= n || e.U < 0 {
			return nil, fmt.Errorf("decomp: new edge %v out of range for n=%d", e, n)
		}
		if gi < 0 || gi >= len(groups) {
			return nil, fmt.Errorf("decomp: edge %v assigned to invalid group %d", e, gi)
		}
		g := &groups[gi]
		if g.Kind != KindStar {
			return nil, fmt.Errorf("decomp: group %d is a triangle and cannot grow", gi)
		}
		if !e.Has(g.Root) {
			return nil, fmt.Errorf("decomp: edge %v does not touch group %d's root %d", e, gi, g.Root)
		}
		g.Edges = append(g.Edges, e)
	}
	return New(n, groups)
}

// GrowStarVertex is the common special case of Extend: a new process joins
// the system and connects to the given existing star roots (e.g. a new
// client connecting to every server). The decomposition keeps its size d.
func (d *Decomposition) GrowStarVertex(roots []int) (*Decomposition, int, error) {
	v := d.n
	assign := make(map[graph.Edge]int, len(roots))
	for _, root := range roots {
		gi, ok := d.rootGroup(root)
		if !ok {
			return nil, 0, fmt.Errorf("decomp: no star group rooted at %d", root)
		}
		assign[graph.NewEdge(root, v)] = gi
	}
	nd, err := d.Extend(v+1, assign)
	if err != nil {
		return nil, 0, err
	}
	return nd, v, nil
}

// rootGroup finds a star group rooted at the given vertex.
func (d *Decomposition) rootGroup(root int) (int, bool) {
	for gi, g := range d.groups {
		if g.Kind == KindStar && g.Root == root {
			return gi, true
		}
	}
	return 0, false
}

// Extends checks that next is a valid growth of prev: the same number of
// edge groups (so vectors stay comparable), at least as many processes, and
// every channel of prev still assigned to the same group. Clocks and
// stampers may switch from prev to next mid-computation exactly when this
// returns nil.
func Extends(prev, next *Decomposition) error {
	if next.D() != prev.D() {
		return fmt.Errorf("decomp: growth changes d from %d to %d; timestamps would be incomparable", prev.D(), next.D())
	}
	if next.N() < prev.N() {
		return fmt.Errorf("decomp: growth shrinks the system from %d to %d processes", prev.N(), next.N())
	}
	for _, grp := range prev.Groups() {
		for _, e := range grp.Edges {
			oldG, _ := prev.GroupOf(e.U, e.V)
			newG, ok := next.GroupOf(e.U, e.V)
			if !ok || newG != oldG {
				return fmt.Errorf("decomp: growth moves channel %v to a different group", e)
			}
		}
	}
	return nil
}
