// Package proximity builds the classical flat proximity structures the
// paper compares against: the relative neighborhood graph (RNG), the
// Gabriel graph (GG), the Yao graph, and the unit Delaunay triangulation
// (UDel = Del ∩ UDG). All are computed as subgraphs of a given unit disk
// graph; because every witness that can eliminate a UDG edge lies within
// transmission range of both endpoints, the local computations are exact.
package proximity

import (
	"fmt"
	"math"

	"geospanner/internal/delaunay"
	"geospanner/internal/geom"
	"geospanner/internal/graph"
)

// RNG returns the relative neighborhood graph restricted to the edges of
// g: edge uv survives unless some node w is strictly closer to both u and
// v than they are to each other (the "lune" is empty).
func RNG(g *graph.Graph) *graph.Graph {
	pts := g.Points()
	out := graph.New(pts)
	for _, e := range g.Edges() {
		d := pts[e.U].Dist2(pts[e.V])
		empty := true
		// Any witness in the lune is within |uv| of both endpoints, so it
		// is a UDG neighbor of u; scanning u's neighborhood suffices.
		for _, w := range g.Neighbors(e.U) {
			if w == e.V {
				continue
			}
			if pts[e.U].Dist2(pts[w]) < d && pts[e.V].Dist2(pts[w]) < d {
				empty = false
				break
			}
		}
		if empty {
			out.AddEdge(e.U, e.V)
		}
	}
	return out
}

// Gabriel returns the Gabriel graph restricted to the edges of g: edge uv
// survives when the open disk with diameter uv contains no node.
func Gabriel(g *graph.Graph) *graph.Graph {
	pts := g.Points()
	out := graph.New(pts)
	for _, e := range g.Edges() {
		empty := true
		for _, w := range g.Neighbors(e.U) {
			if w == e.V {
				continue
			}
			if geom.InDiametralDisk(pts[e.U], pts[e.V], pts[w]) {
				empty = false
				break
			}
		}
		if empty {
			out.AddEdge(e.U, e.V)
		}
	}
	return out
}

// Yao returns the Yao graph with k cones restricted to the edges of g: for
// every node u and every cone of angle 2π/k (apex u, first cone starting at
// angle 0), the shortest edge of g in the cone is kept. Ties are broken by
// the smaller neighbor ID. The union over both endpoints is returned as an
// undirected graph. k must be at least 2.
func Yao(g *graph.Graph, k int) (*graph.Graph, error) {
	if k < 2 {
		return nil, fmt.Errorf("proximity: yao graph needs k >= 2 cones, got %d", k)
	}
	pts := g.Points()
	out := graph.New(pts)
	cone := 2 * math.Pi / float64(k)
	for u := 0; u < g.N(); u++ {
		best := make([]int, k)
		for i := range best {
			best[i] = -1
		}
		for _, v := range g.Neighbors(u) {
			theta := pts[u].Angle(pts[v])
			if theta < 0 {
				theta += 2 * math.Pi
			}
			c := int(theta / cone)
			if c >= k {
				c = k - 1 // theta == 2π edge case
			}
			switch {
			case best[c] == -1:
				best[c] = v
			case pts[u].Dist2(pts[v]) < pts[u].Dist2(pts[best[c]]):
				best[c] = v
			case pts[u].Dist2(pts[v]) == pts[u].Dist2(pts[best[c]]) && v < best[c]:
				best[c] = v
			}
		}
		for _, v := range best {
			if v >= 0 {
				out.AddEdge(u, v)
			}
		}
	}
	return out, nil
}

// UDel returns the unit Delaunay triangulation: the edges of the Delaunay
// triangulation of all points that are also edges of g.
func UDel(g *graph.Graph) (*graph.Graph, error) {
	tri, err := delaunay.Triangulate(g.Points())
	if err != nil {
		return nil, fmt.Errorf("proximity: udel: %w", err)
	}
	out := graph.New(g.Points())
	for _, e := range tri.Edges() {
		if g.HasEdge(e.U, e.V) {
			out.AddEdge(e.U, e.V)
		}
	}
	return out, nil
}

// MST returns a Euclidean minimum spanning forest of g (Prim's algorithm
// per component), used by tests as the connectivity baseline: RNG, GG and
// the LDel family all contain it.
func MST(g *graph.Graph) *graph.Graph {
	pts := g.Points()
	out := graph.New(pts)
	n := g.N()
	inTree := make([]bool, n)
	bestDist := make([]float64, n)
	bestFrom := make([]int, n)
	for root := 0; root < n; root++ {
		if inTree[root] {
			continue
		}
		for i := range bestDist {
			bestDist[i] = math.Inf(1)
			bestFrom[i] = -1
		}
		bestDist[root] = 0
		for {
			u, d := -1, math.Inf(1)
			for v := 0; v < n; v++ {
				if !inTree[v] && bestDist[v] < d {
					u, d = v, bestDist[v]
				}
			}
			if u == -1 {
				break
			}
			inTree[u] = true
			if bestFrom[u] >= 0 {
				out.AddEdge(bestFrom[u], u)
			}
			for _, v := range g.Neighbors(u) {
				if !inTree[v] {
					if w := pts[u].Dist2(pts[v]); w < bestDist[v] {
						bestDist[v] = w
						bestFrom[v] = u
					}
				}
			}
		}
	}
	return out
}
