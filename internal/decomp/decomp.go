// Package decomp implements edge decompositions of communication topologies
// (Definition 2 of the paper): partitions of the edge set into groups, each
// of which is a star or a triangle. The size d of the decomposition is the
// vector-clock length used by the online timestamping algorithm
// (internal/core), so the package's job is to make d small:
//
//   - Trivial decompositions (N−1 stars; N−3 stars + 1 triangle for graphs
//     containing a triangle on the last vertices).
//   - Vertex-cover-based star decompositions (Theorem 5: d ≤ β(G)).
//   - The Figure 7 approximation algorithm (Theorem 6: ratio bound 2;
//     Theorem 7: optimal on acyclic graphs).
//   - An exact branch-and-bound optimum for small graphs, used to measure
//     the approximation ratio experimentally.
package decomp

import (
	"fmt"
	"sort"
	"strings"

	"syncstamp/internal/graph"
)

// Kind discriminates the two permitted group shapes.
type Kind int

// Group kinds. Stars have a root vertex; triangles have three vertices.
const (
	KindStar Kind = iota + 1
	KindTriangle
)

// String returns "star" or "triangle".
func (k Kind) String() string {
	switch k {
	case KindStar:
		return "star"
	case KindTriangle:
		return "triangle"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Group is one edge group E_i of a decomposition.
type Group struct {
	Kind Kind
	// Root is the star's root vertex; meaningful only for KindStar.
	Root int
	// Tri lists the triangle's vertices in increasing order; meaningful only
	// for KindTriangle.
	Tri [3]int
	// Edges are the member edges in sorted order.
	Edges []graph.Edge
}

// String renders the group as "star@3{(1,3) (3,5)}" or
// "triangle(1,2,4){...}".
func (g Group) String() string {
	var b strings.Builder
	switch g.Kind {
	case KindStar:
		fmt.Fprintf(&b, "star@%d{", g.Root)
	case KindTriangle:
		fmt.Fprintf(&b, "triangle(%d,%d,%d){", g.Tri[0], g.Tri[1], g.Tri[2])
	default:
		fmt.Fprintf(&b, "%v{", g.Kind)
	}
	for i, e := range g.Edges {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Decomposition is an edge decomposition {E_1, ..., E_d}. Construct with
// New; the index of each group is the vector-clock component assigned to its
// edges by the online algorithm.
type Decomposition struct {
	groups []Group
	// edgeGroup maps each member edge, keyed by edgeKey, to its group. A
	// uint64 key takes Go's fast64 map path; a graph.Edge key is hashed as
	// a struct on every Merge and Adopt.
	edgeGroup map[uint64]int
	n         int
}

// edgeKey packs a normalized edge (0 <= U < V) into one map key: U in the
// high 32 bits, V in the low. Every member edge lies in [0, n), and GroupOf
// refuses a channel outside it before packing, so no two edges share a key.
func edgeKey(e graph.Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) }

// New assembles a Decomposition over a topology with n vertices from its
// groups. It returns an error if any group's edges do not form the claimed
// star or triangle, or if an edge appears in more than one group.
// Empty groups are rejected.
func New(n int, groups []Group) (*Decomposition, error) {
	d := &Decomposition{
		groups:    make([]Group, 0, len(groups)),
		edgeGroup: make(map[uint64]int),
		n:         n,
	}
	for gi, grp := range groups {
		if len(grp.Edges) == 0 {
			return nil, fmt.Errorf("decomp: group %d is empty", gi)
		}
		sub := graph.New(n)
		for _, e := range grp.Edges {
			if e.V >= n {
				return nil, fmt.Errorf("decomp: group %d edge %v out of range for n=%d", gi, e, n)
			}
			if prev, dup := d.edgeGroup[edgeKey(e)]; dup {
				return nil, fmt.Errorf("decomp: edge %v in groups %d and %d", e, prev, gi)
			}
			sub.AddEdge(e.U, e.V)
		}
		if sub.M() != len(grp.Edges) {
			return nil, fmt.Errorf("decomp: group %d contains duplicate edges", gi)
		}
		norm := grp
		norm.Edges = sub.Edges()
		switch grp.Kind {
		case KindStar:
			root, ok := sub.IsStar()
			if !ok {
				return nil, fmt.Errorf("decomp: group %d is not a star: %v", gi, grp.Edges)
			}
			// Honor a declared root when it is valid; otherwise adopt the
			// detected one.
			valid := true
			for _, e := range grp.Edges {
				if !e.Has(grp.Root) {
					valid = false
					break
				}
			}
			if !valid {
				norm.Root = root
			}
		case KindTriangle:
			tri, ok := sub.IsTriangle()
			if !ok {
				return nil, fmt.Errorf("decomp: group %d is not a triangle: %v", gi, grp.Edges)
			}
			norm.Tri = tri
		default:
			return nil, fmt.Errorf("decomp: group %d has invalid kind %v", gi, grp.Kind)
		}
		idx := len(d.groups)
		d.groups = append(d.groups, norm)
		for _, e := range norm.Edges {
			d.edgeGroup[edgeKey(e)] = idx
		}
	}
	return d, nil
}

// MustNew is New but panics on error; intended for decompositions built by
// the algorithms in this package, which construct valid groups.
func MustNew(n int, groups []Group) *Decomposition {
	d, err := New(n, groups)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// D returns the number of edge groups — the vector-clock size of the online
// algorithm.
func (d *Decomposition) D() int { return len(d.groups) }

// N returns the vertex count of the underlying topology.
func (d *Decomposition) N() int { return d.n }

// Groups returns the groups in index order. The returned slice is shared;
// callers must not modify it.
func (d *Decomposition) Groups() []Group { return d.groups }

// GroupOf returns the index g such that the channel (a, b) belongs to edge
// group E_g (the e(m) of Section 3.2), and whether the edge is covered at
// all. A channel that cannot be an edge — a self channel, or a negative or
// out-of-range vertex — is not covered.
func (d *Decomposition) GroupOf(a, b int) (int, bool) {
	if a > b {
		a, b = b, a
	}
	if a < 0 || a == b || b >= d.n {
		return 0, false
	}
	gi, ok := d.edgeGroup[edgeKey(graph.Edge{U: a, V: b})]
	return gi, ok
}

// Covers reports whether every edge of g belongs to some group.
func (d *Decomposition) Covers(g *graph.Graph) bool {
	for _, e := range g.Edges() {
		if _, ok := d.edgeGroup[edgeKey(e)]; !ok {
			return false
		}
	}
	return true
}

// Validate checks that d is an edge decomposition of g per Definition 2:
// the groups partition exactly the edge set of g and every group is a star
// or a triangle (already enforced by New).
func (d *Decomposition) Validate(g *graph.Graph) error {
	if g.N() != d.n {
		return fmt.Errorf("decomp: vertex count mismatch: graph %d vs decomposition %d", g.N(), d.n)
	}
	covered := 0
	for _, grp := range d.groups {
		for _, e := range grp.Edges {
			if !g.HasEdge(e.U, e.V) {
				return fmt.Errorf("decomp: edge %v not in graph", e)
			}
			covered++
		}
	}
	if covered != g.M() {
		return fmt.Errorf("decomp: groups cover %d edges, graph has %d", covered, g.M())
	}
	return nil
}

// Stars returns the number of star groups.
func (d *Decomposition) Stars() int {
	c := 0
	for _, g := range d.groups {
		if g.Kind == KindStar {
			c++
		}
	}
	return c
}

// Triangles returns the number of triangle groups.
func (d *Decomposition) Triangles() int { return len(d.groups) - d.Stars() }

// String renders the decomposition as "E1=star@0{...} E2=triangle(..){...}".
func (d *Decomposition) String() string {
	var b strings.Builder
	for i, g := range d.groups {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "E%d=%s", i+1, g.String())
	}
	return b.String()
}

// starGroup builds a star group rooted at root from edges, sorting them.
func starGroup(root int, edges []graph.Edge) Group {
	sorted := append([]graph.Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].U != sorted[j].U {
			return sorted[i].U < sorted[j].U
		}
		return sorted[i].V < sorted[j].V
	})
	return Group{Kind: KindStar, Root: root, Edges: sorted}
}

// triangleGroup builds a triangle group on vertices x, y, z.
func triangleGroup(x, y, z int) Group {
	vs := []int{x, y, z}
	sort.Ints(vs)
	return Group{
		Kind: KindTriangle,
		Tri:  [3]int{vs[0], vs[1], vs[2]},
		Edges: []graph.Edge{
			graph.NewEdge(vs[0], vs[1]),
			graph.NewEdge(vs[0], vs[2]),
			graph.NewEdge(vs[1], vs[2]),
		},
	}
}
