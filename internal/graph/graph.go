// Package graph implements the undirected communication topologies of
// Section 3.1 of the paper. A topology G = (V, E) has one vertex per process
// and an edge (Pi, Pj) whenever Pi and Pj may communicate directly. The edge
// decomposition machinery (internal/decomp) and the online timestamping
// algorithm (internal/core) are parameterized by these graphs.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Edge is an undirected edge between two process indices. Edges are stored
// in normalized form with U < V; use NewEdge to normalize.
type Edge struct {
	U, V int
}

// NewEdge returns the normalized edge between a and b.
// It panics if a == b (self-loops are not valid channels) or either is negative.
func NewEdge(a, b int) Edge {
	if a == b {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", a))
	}
	if a < 0 || b < 0 {
		panic(fmt.Sprintf("graph: negative vertex in edge (%d,%d)", a, b))
	}
	if a > b {
		a, b = b, a
	}
	return Edge{U: a, V: b}
}

// Other returns the endpoint of e that is not x.
// It panics if x is not an endpoint of e.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of %v", x, e))
}

// CompareEdges orders edges lexicographically, by U and then by V: the
// order Edges returns. It is a comparison function for slices.SortFunc.
func CompareEdges(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// Has reports whether x is an endpoint of e.
func (e Edge) Has(x int) bool { return e.U == x || e.V == x }

// String renders the edge as "(u,v)".
func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is an undirected simple graph on vertices 0..n-1.
// The zero value is not usable; construct with New.
type Graph struct {
	n   int
	adj []map[int]bool
	m   int
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	return &Graph{n: n, adj: adj}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// AddEdge inserts the undirected edge (a, b). Adding an existing edge is a
// no-op. It panics on self-loops or out-of-range vertices.
func (g *Graph) AddEdge(a, b int) {
	e := NewEdge(a, b)
	g.checkVertex(e.U)
	g.checkVertex(e.V)
	if g.adj[e.U][e.V] {
		return
	}
	g.adj[e.U][e.V] = true
	g.adj[e.V][e.U] = true
	g.m++
}

// RemoveEdge deletes the undirected edge (a, b) if present.
func (g *Graph) RemoveEdge(a, b int) {
	e := NewEdge(a, b)
	g.checkVertex(e.U)
	g.checkVertex(e.V)
	if !g.adj[e.U][e.V] {
		return
	}
	delete(g.adj[e.U], e.V)
	delete(g.adj[e.V], e.U)
	g.m--
}

// HasEdge reports whether (a, b) is an edge.
func (g *Graph) HasEdge(a, b int) bool {
	if a == b {
		return false
	}
	g.checkVertex(a)
	g.checkVertex(b)
	return g.adj[a][b]
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// Neighbors returns the neighbors of v in increasing order.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Edges returns all edges in lexicographic order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if u < v {
				out = append(out, Edge{U: u, V: v})
			}
		}
	}
	slices.SortFunc(out, CompareEdges)
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if u < v {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

// IsStar reports whether the nonempty edge set of g forms a star, i.e. there
// is a vertex incident to every edge (Section 3.1). A single edge is a star
// (rooted at either endpoint). An empty edge set is not considered a star.
// The second return value is a root when the first is true.
func (g *Graph) IsStar() (int, bool) { return StarOf(g.Edges()) }

// IsTriangle reports whether the edge set of g is exactly a triangle
// (Section 3.1: |E| = 3 and the edges form a 3-cycle). The returned triple
// lists the triangle's vertices in increasing order when true.
func (g *Graph) IsTriangle() ([3]int, bool) { return TriangleOf(g.Edges()) }

// StarOf is IsStar over an edge list: normalized, distinct edges in the
// order Edges returns. The root is the first edge's lower endpoint when
// every edge touches it, else its upper one.
func StarOf(edges []Edge) (int, bool) {
	if len(edges) == 0 {
		return 0, false
	}
	for _, root := range []int{edges[0].U, edges[0].V} {
		ok := true
		for _, e := range edges {
			if !e.Has(root) {
				ok = false
				break
			}
		}
		if ok {
			return root, true
		}
	}
	return 0, false
}

// TriangleOf is IsTriangle over an edge list: normalized, distinct edges in
// the order Edges returns. Sorted, the three edges of a triangle x < y < z
// are (x,y), (x,z), (y,z), and no other three distinct edges line up so.
func TriangleOf(edges []Edge) ([3]int, bool) {
	if len(edges) != 3 {
		return [3]int{}, false
	}
	xy, xz, yz := edges[0], edges[1], edges[2]
	if xy.U != xz.U || xy.V != yz.U || xz.V != yz.V {
		return [3]int{}, false
	}
	return [3]int{xy.U, xy.V, xz.V}, true
}

// Triangles returns every triangle (x, y, z) with x < y < z.
func (g *Graph) Triangles() [][3]int {
	var out [][3]int
	for x := 0; x < g.n; x++ {
		nx := g.Neighbors(x)
		for i := 0; i < len(nx); i++ {
			y := nx[i]
			if y <= x {
				continue
			}
			for j := i + 1; j < len(nx); j++ {
				z := nx[j]
				if z <= y {
					continue
				}
				if g.adj[y][z] {
					out = append(out, [3]int{x, y, z})
				}
			}
		}
	}
	return out
}

// IsAcyclic reports whether g contains no cycle (i.e. g is a forest).
func (g *Graph) IsAcyclic() bool {
	parent := make([]int, g.n)
	visited := make([]bool, g.n)
	for i := range parent {
		parent[i] = -1
	}
	for s := 0; s < g.n; s++ {
		if visited[s] {
			continue
		}
		stack := []int{s}
		visited[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for v := range g.adj[u] {
				if v == parent[u] {
					continue
				}
				if visited[v] {
					return false
				}
				visited[v] = true
				parent[v] = u
				stack = append(stack, v)
			}
		}
	}
	return true
}

// Components returns the connected components of g, each as a sorted vertex
// slice, ordered by smallest member. Isolated vertices form singleton
// components.
func (g *Graph) Components() [][]int {
	visited := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if visited[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		visited[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for v := range g.adj[u] {
				if !visited[v] {
					visited[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether g has at most one connected component that
// contains all vertices.
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	return len(g.Components()) == 1
}

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	best := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > best {
			best = d
		}
	}
	return best
}

// Subgraph returns the spanning subgraph of g containing only the given
// edges. Every edge must exist in g.
func (g *Graph) Subgraph(edges []Edge) *Graph {
	s := New(g.n)
	for _, e := range edges {
		if !g.HasEdge(e.U, e.V) {
			panic(fmt.Sprintf("graph: edge %v not in graph", e))
		}
		s.AddEdge(e.U, e.V)
	}
	return s
}

// String renders the graph as "n=5 m=4 edges=[(0,1) (0,2) ...]".
func (g *Graph) String() string {
	return fmt.Sprintf("n=%d m=%d edges=%v", g.n, g.m, g.Edges())
}
