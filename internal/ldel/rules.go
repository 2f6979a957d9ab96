package ldel

import (
	"fmt"
	"slices"
	"sort"

	"geospanner/internal/delaunay"
	"geospanner/internal/geom"
	"geospanner/internal/graph"
)

// The rules of Algorithms 2 and 3, each written once. The protocol's nodes
// and the Witness (behind every centralized build and every patch) call
// the same functions; only what a node knows differs — the protocol feeds
// each rule what the node heard, the witness what the node's neighborhood
// holds.

// nodeDecisions is one node's share of Algorithm 2 steps 2–4. ids are the
// nodes u knows a position for, u included, sorted ascending, and pos[i]
// is the position of ids[i]. It returns u's Gabriel edges (each short edge
// uv whose open diametral disk holds no other known node, sorted), mine
// (u's incident all-short triangles of the Delaunay triangulation of the
// known positions), and proposed (the triangles of mine whose angle at u
// is at least π/3); mine and proposed are in triangulation order. When the
// local triangulation fails the Gabriel edges come back with the error.
func nodeDecisions(u int, ids []int, pos []geom.Point, r2 float64) (gab []graph.Edge, mine, proposed []TriKey, err error) {
	iu, _ := slices.BinarySearch(ids, u)
	short := func(i, j int) bool { return pos[i].Dist2(pos[j]) <= r2 }
	for i, v := range ids {
		if i == iu || !short(iu, i) {
			continue
		}
		empty := true
		for j := range ids {
			if j != iu && j != i && geom.InDiametralDisk(pos[iu], pos[i], pos[j]) {
				empty = false
				break
			}
		}
		if empty {
			gab = append(gab, graph.MakeEdge(u, v))
		}
	}

	tri, err := delaunay.Triangulate(pos)
	if err != nil {
		return gab, nil, nil, fmt.Errorf("ldel: local triangulation of node %d: %w", u, err)
	}
	for _, t := range tri.Triangles {
		// Local indices in ascending order; ids is sorted, so this is also
		// the corners' ID order.
		c := NewTriKey(t.A, t.B, t.C)
		if !c.Has(iu) || !short(c[0], c[1]) || !short(c[1], c[2]) || !short(c[0], c[2]) {
			continue
		}
		key := TriKey{ids[c[0]], ids[c[1]], ids[c[2]]}
		mine = append(mine, key)
		var v, w int
		switch iu {
		case c[0]:
			v, w = c[1], c[2]
		case c[1]:
			v, w = c[0], c[2]
		default:
			v, w = c[0], c[1]
		}
		if geom.AngleAt(pos[iu], pos[v], pos[w]) >= geom.SixtyDegrees-angleSlack {
			proposed = append(proposed, key)
		}
	}
	return gab, mine, proposed, nil
}

// keptStatus applies Algorithm 2 steps 5–6 to one triangle: kept when some
// corner proposes it and every corner holds it locally.
func keptStatus(t TriKey, mine, proposed [][]TriKey) bool {
	return (slices.Contains(proposed[t[0]], t) || slices.Contains(proposed[t[1]], t) || slices.Contains(proposed[t[2]], t)) &&
		slices.Contains(mine[t[0]], t) && slices.Contains(mine[t[1]], t) && slices.Contains(mine[t[2]], t)
}

// removes is Algorithm 3 step 2's test: kept triangle t2 (corners p2)
// removes t1 (corners p1) when the two properly cross and a vertex of t2
// that is not a vertex of t1 lies strictly inside t1's circumcircle.
func removes(t1 TriKey, p1 [3]geom.Point, t2 TriKey, p2 [3]geom.Point) bool {
	if t2 == t1 || !trianglesIntersect(p1, p2) {
		return false
	}
	for i, v := range t2 {
		if !t1.Has(v) && geom.InCircleCCW(p1[0], p1[1], p1[2], p2[i]) == geom.Positive {
			return true
		}
	}
	return false
}

// trianglesIntersect reports whether any edge of one triangle properly
// crosses an edge of the other.
func trianglesIntersect(t1, t2 [3]geom.Point) bool {
	e1 := [3]geom.Segment{
		geom.Seg(t1[0], t1[1]), geom.Seg(t1[1], t1[2]), geom.Seg(t1[0], t1[2]),
	}
	e2 := [3]geom.Segment{
		geom.Seg(t2[0], t2[1]), geom.Seg(t2[1], t2[2]), geom.Seg(t2[0], t2[2]),
	}
	for _, s1 := range e1 {
		for _, s2 := range e2 {
			if s1.CrossesProperly(s2) {
				return true
			}
		}
	}
	return false
}

// assemble builds the Result from the union of the nodes' Gabriel edges,
// the kept (LDel) triangles and the surviving (PLDel) triangles. Run and
// the centralized builds both end here.
func assemble(pts []geom.Point, gabriel map[graph.Edge]bool, kept, surviving map[TriKey]bool) *Result {
	res := &Result{LDel: graph.New(pts), PLDel: planarGraph(pts, gabriel, surviving)}
	for e := range gabriel {
		res.Gabriel = append(res.Gabriel, e)
		res.LDel.AddEdge(e.U, e.V)
	}
	sort.Slice(res.Gabriel, func(i, j int) bool {
		if res.Gabriel[i].U != res.Gabriel[j].U {
			return res.Gabriel[i].U < res.Gabriel[j].U
		}
		return res.Gabriel[i].V < res.Gabriel[j].V
	})
	for t := range kept {
		for _, e := range t.Edges() {
			res.LDel.AddEdge(e.U, e.V)
		}
	}
	for t := range surviving {
		res.Triangles = append(res.Triangles, t)
	}
	sortTris(res.Triangles)
	return res
}

// planarGraph is PLDel: the Gabriel edges plus the edges of the surviving
// triangles.
func planarGraph(pts []geom.Point, gabriel map[graph.Edge]bool, surviving map[TriKey]bool) *graph.Graph {
	pl := graph.New(pts)
	for e := range gabriel {
		pl.AddEdge(e.U, e.V)
	}
	for t := range surviving {
		for _, e := range t.Edges() {
			pl.AddEdge(e.U, e.V)
		}
	}
	return pl
}

// kHopNeighbors returns the active nodes within k hops of u (excluding u),
// sorted, via depth-bounded BFS over active nodes.
func kHopNeighbors(g *graph.Graph, active []bool, u, k int) []int {
	depth := map[int]int{u: 0}
	frontier := []int{u}
	var out []int
	for d := 1; d <= k && len(frontier) > 0; d++ {
		var next []int
		for _, x := range frontier {
			for _, v := range g.Neighbors(x) {
				if !active[v] {
					continue
				}
				if _, seen := depth[v]; seen {
					continue
				}
				depth[v] = d
				next = append(next, v)
				out = append(out, v)
			}
		}
		frontier = next
	}
	sort.Ints(out)
	return out
}

// allActive returns active, or an all-true mask of n nodes when it is nil.
func allActive(active []bool, n int) []bool {
	if active != nil {
		return active
	}
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	return all
}
