package graph

import (
	"slices"

	"geospanner/internal/geom"
)

// Connected reports whether the graph is connected. The empty graph and
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	dist, _ := g.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Components returns the connected components as slices of node indices,
// each sorted, ordered by their smallest member.
func (g *Graph) Components() [][]int {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// SubsetConnected reports whether the subgraph induced by the given node
// subset is connected (an empty or singleton subset is connected).
func (g *Graph) SubsetConnected(nodes []int) bool {
	if len(nodes) <= 1 {
		return true
	}
	in := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		in[v] = true
	}
	seen := make(map[int]bool, len(nodes))
	stack := []int{nodes[0]}
	seen[nodes[0]] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if in[v] && !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == len(nodes)
}

// CrossingEdges returns every pair of edges whose interiors properly cross,
// i.e. violations of geometric planarity. Edges sharing an endpoint never
// cross properly. The scan is exact (robust predicates) and prunes by
// bounding box.
func (g *Graph) CrossingEdges() [][2]Edge {
	edges := g.Edges()
	type box struct{ minX, maxX, minY, maxY float64 }
	boxes := make([]box, len(edges))
	segs := make([]geom.Segment, len(edges))
	for i, e := range edges {
		a, b := g.pts[e.U], g.pts[e.V]
		segs[i] = geom.Seg(a, b)
		boxes[i] = box{
			minX: min(a.X, b.X), maxX: max(a.X, b.X),
			minY: min(a.Y, b.Y), maxY: max(a.Y, b.Y),
		}
	}
	var crossings [][2]Edge
	for i := range edges {
		for j := i + 1; j < len(edges); j++ {
			if boxes[i].maxX < boxes[j].minX || boxes[j].maxX < boxes[i].minX ||
				boxes[i].maxY < boxes[j].minY || boxes[j].maxY < boxes[i].minY {
				continue
			}
			if segs[i].CrossesProperly(segs[j]) {
				crossings = append(crossings, [2]Edge{edges[i], edges[j]})
			}
		}
	}
	return crossings
}

// IsPlanarEmbedding reports whether no two edges properly cross in the
// plane. This is the planarity notion used for wireless network topologies:
// the straight-line drawing at the node positions has no crossing links.
func (g *Graph) IsPlanarEmbedding() bool { return len(g.CrossingEdges()) == 0 }

// Diameter returns the hop diameter of the graph: the largest finite
// shortest-hop distance over all node pairs. Disconnected pairs are
// ignored; a graph with no edges has diameter 0. The paper varies the UDG
// diameter through the transmission radius in its Figure 11–12 sweeps.
// The all-sources sweep runs on a Frozen snapshot with reused buffers.
func (g *Graph) Diameter() int {
	n := g.N()
	if n == 0 {
		return 0
	}
	f := g.Freeze()
	dist := make([]int, n)
	parent := make([]int, n)
	queue := make([]int32, 0, n)
	var diameter int
	for v := 0; v < n; v++ {
		f.BFSInto(v, dist, parent, queue)
		for _, d := range dist {
			if d > diameter {
				diameter = d
			}
		}
	}
	return diameter
}

// AvgHopDistance returns the mean shortest-hop distance over connected
// ordered pairs (0 when no pair is connected).
func (g *Graph) AvgHopDistance() float64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	f := g.Freeze()
	dist := make([]int, n)
	parent := make([]int, n)
	queue := make([]int32, 0, n)
	var sum, count int
	for v := 0; v < n; v++ {
		f.BFSInto(v, dist, parent, queue)
		for u, d := range dist {
			if u != v && d != Unreachable {
				sum += d
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}
