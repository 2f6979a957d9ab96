// Package graph provides the undirected geometric graph type shared by all
// topology constructions (UDG, RNG, GG, Yao, Delaunay variants, CDS family,
// LDel family) together with the graph algorithms the spanner evaluation
// needs: BFS hop distances, Dijkstra length distances, connectivity,
// degree statistics, and an exact geometric planarity check.
//
// Nodes are identified by dense indices 0..n-1 with fixed positions; edges
// are undirected and weighted implicitly by Euclidean length.
//
// Adjacency is stored as one sorted []int slice per node, maintained
// incrementally by binary-search insertion and removal. Neighbors therefore
// iterates in increasing index order without allocating or sorting, which
// is what every hot path in the repository (simulator delivery, LDel
// construction, BFS/Dijkstra, stretch metrics) does per node per step. For
// read-only consumers that query a finished graph many times, Freeze
// produces an immutable CSR snapshot (see frozen.go) that is even cheaper
// to traverse and safe to share across goroutines.
//
// # Bounds policy
//
// Node indices passed to any method of Graph must be in [0, N()). Every
// method panics on an out-of-range index — including HasEdge, which in an
// earlier revision silently reported false. A query about a node that does
// not exist is a programming error, not an answerable question, and the
// uniform panic surfaces index bugs at their source instead of masking
// them as missing edges.
package graph

import (
	"fmt"
	"sort"

	"geospanner/internal/geom"
)

// Edge is an undirected edge between node indices, normalized so U < V.
type Edge struct {
	U, V int
}

// MakeEdge returns the normalized edge {min(i,j), max(i,j)}.
func MakeEdge(i, j int) Edge {
	if i > j {
		i, j = j, i
	}
	return Edge{U: i, V: j}
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is an undirected graph over nodes with fixed planar positions.
// The zero value is not usable; construct with New.
type Graph struct {
	pts []geom.Point
	adj [][]int // adj[i] is sorted ascending and duplicate-free
	m   int     // number of edges
}

// New returns an empty graph over the given node positions. The positions
// slice is retained (not copied); callers must not mutate it afterwards.
func New(pts []geom.Point) *Graph {
	return &Graph{pts: pts, adj: make([][]int, len(pts))}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.pts) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// Point returns the position of node i.
func (g *Graph) Point(i int) geom.Point { return g.pts[i] }

// Points returns the underlying position slice. Callers must treat it as
// read-only.
func (g *Graph) Points() []geom.Point { return g.pts }

// check panics with a descriptive message when i is not a node index.
func (g *Graph) check(i int) {
	if i < 0 || i >= len(g.adj) {
		panic(fmt.Sprintf("graph: node index %d out of range [0,%d)", i, len(g.adj)))
	}
}

// searchNbr returns the insertion position of j in the sorted slice s and
// whether j is already present.
func searchNbr(s []int, j int) (int, bool) {
	pos := sort.SearchInts(s, j)
	return pos, pos < len(s) && s[pos] == j
}

// insertNbr inserts j into the sorted slice s, preserving order.
func insertNbr(s []int, j int) []int {
	pos, ok := searchNbr(s, j)
	if ok {
		return s
	}
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = j
	return s
}

// removeNbr removes j from the sorted slice s if present.
func removeNbr(s []int, j int) []int {
	pos, ok := searchNbr(s, j)
	if !ok {
		return s
	}
	copy(s[pos:], s[pos+1:])
	return s[:len(s)-1]
}

// AddEdge inserts the undirected edge {i, j}. Self-loops and duplicate
// insertions are ignored.
func (g *Graph) AddEdge(i, j int) {
	g.check(i)
	g.check(j)
	if i == j {
		return
	}
	if _, ok := searchNbr(g.adj[i], j); ok {
		return
	}
	g.adj[i] = insertNbr(g.adj[i], j)
	g.adj[j] = insertNbr(g.adj[j], i)
	g.m++
}

// RemoveEdge deletes the undirected edge {i, j} if present.
func (g *Graph) RemoveEdge(i, j int) {
	g.check(i)
	g.check(j)
	if _, ok := searchNbr(g.adj[i], j); !ok {
		return
	}
	g.adj[i] = removeNbr(g.adj[i], j)
	g.adj[j] = removeNbr(g.adj[j], i)
	g.m--
}

// HasEdge reports whether {i, j} is an edge. Like every Graph method it
// panics when either index is out of range (see the package bounds policy).
func (g *Graph) HasEdge(i, j int) bool {
	g.check(i)
	g.check(j)
	// Search the smaller adjacency list of the two.
	s := g.adj[i]
	if len(g.adj[j]) < len(s) {
		s, j = g.adj[j], i
	}
	_, ok := searchNbr(s, j)
	return ok
}

// Neighbors returns the neighbors of node i in increasing index order.
// The returned slice is the graph's internal adjacency storage: it must be
// treated as read-only, and it is invalidated by the next AddEdge or
// RemoveEdge touching node i. Copy it (or use NeighborsAppend) when it has
// to survive mutation.
func (g *Graph) Neighbors(i int) []int { return g.adj[i] }

// NeighborsAppend appends the neighbors of node i, in increasing index
// order, to buf and returns the extended slice. It allocates only when buf
// lacks capacity, so callers can reuse one buffer across many nodes.
func (g *Graph) NeighborsAppend(buf []int, i int) []int {
	return append(buf, g.adj[i]...)
}

// EachNeighbor calls fn for every neighbor of node i in increasing index
// order, stopping early when fn returns false. The graph must not be
// mutated during the iteration.
func (g *Graph) EachNeighbor(i int, fn func(j int) bool) {
	for _, j := range g.adj[i] {
		if !fn(j) {
			return
		}
	}
}

// Degree returns the degree of node i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// Edges returns all edges in deterministic (U, then V) ascending order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for i := range g.adj {
		for _, j := range g.adj[i] {
			if i < j {
				edges = append(edges, Edge{U: i, V: j})
			}
		}
	}
	return edges
}

// EdgeLength returns the Euclidean length of edge {i, j} (whether or not it
// is present in the graph).
func (g *Graph) EdgeLength(i, j int) float64 { return g.pts[i].Dist(g.pts[j]) }

// Clone returns a deep copy of the graph sharing the position slice.
func (g *Graph) Clone() *Graph {
	c := &Graph{pts: g.pts, adj: make([][]int, len(g.adj)), m: g.m}
	for i, s := range g.adj {
		if len(s) > 0 {
			c.adj[i] = append([]int(nil), s...)
		}
	}
	return c
}

// Equal reports whether g and other have identical node positions and
// identical edge sets. It is the bit-identity check the loss-tolerance
// tests use to compare output graphs across runs.
func (g *Graph) Equal(other *Graph) bool {
	if other == nil || g.N() != other.N() || g.m != other.m {
		return false
	}
	for i, p := range g.pts {
		if !p.Eq(other.pts[i]) {
			return false
		}
	}
	for i, s := range g.adj {
		o := other.adj[i]
		if len(s) != len(o) {
			return false
		}
		for k, v := range s {
			if o[k] != v {
				return false
			}
		}
	}
	return true
}

// AddAll inserts every edge of other into g. The graphs must be over the
// same node set.
func (g *Graph) AddAll(other *Graph) {
	for i, s := range other.adj {
		for _, j := range s {
			if i < j {
				g.AddEdge(i, j)
			}
		}
	}
}

// Subgraph returns a new graph on the same node set containing only edges
// with both endpoints in keep.
func (g *Graph) Subgraph(keep map[int]bool) *Graph {
	s := New(g.pts)
	for i, nbrs := range g.adj {
		if !keep[i] {
			continue
		}
		for _, j := range nbrs {
			if i < j && keep[j] {
				s.AddEdge(i, j)
			}
		}
	}
	return s
}

// TotalLength returns the sum of Euclidean lengths of all edges.
func (g *Graph) TotalLength() float64 {
	var total float64
	for i, nbrs := range g.adj {
		for _, j := range nbrs {
			if i < j {
				total += g.EdgeLength(i, j)
			}
		}
	}
	return total
}

// MaxDegree returns the maximum node degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	var maxDeg int
	for i := range g.adj {
		if d := len(g.adj[i]); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// AvgDegree returns the average node degree over all nodes.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// DegreeOver returns max and average degree restricted to the node subset.
// An empty subset yields (0, 0).
func (g *Graph) DegreeOver(nodes []int) (maxDeg int, avgDeg float64) {
	if len(nodes) == 0 {
		return 0, 0
	}
	var sum int
	for _, i := range nodes {
		d := len(g.adj[i])
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg, float64(sum) / float64(len(nodes))
}
