package geom

import (
	"math"
	"sort"
)

// Grid is a uniform-cell spatial index over a fixed point set: each point
// lands in the square cell of side `cell` containing it, and a radius
// query touches only the cells the query disk can reach. For points
// distributed roughly uniformly — the paper's deployment model — building
// is O(n) and a radius-r query with r ≤ cell inspects a 3×3 cell
// neighborhood, so enumerating all pairs within r over the whole set is
// expected O(n + m).
//
// It is the repo's one spatial index: udg.Build enumerates pairs at the
// transmission radius with it, and RangeCircle answers closed-disk range
// queries of any radius.
//
// All iteration orders are deterministic functions of the point set: cells
// are visited in fixed (dx, dy) order and buckets hold indices in
// ascending order by construction.
type Grid struct {
	pts        []Point
	cell       float64
	minX, minY float64
	buckets    map[[2]int][]int
}

// NewGrid indexes pts with the given cell side. A non-positive cell side
// (or an empty point set) yields a degenerate index whose queries scan
// nothing — callers gate on their radius being positive, as udg.Build
// does. The index holds a reference to pts; the slice must not be mutated
// while the grid is in use.
func NewGrid(pts []Point, cell float64) *Grid {
	g := &Grid{pts: pts, cell: cell}
	if len(pts) == 0 || cell <= 0 {
		return g
	}
	g.minX, g.minY = pts[0].X, pts[0].Y
	for _, p := range pts[1:] {
		g.minX = math.Min(g.minX, p.X)
		g.minY = math.Min(g.minY, p.Y)
	}
	g.buckets = make(map[[2]int][]int, len(pts))
	for i, p := range pts {
		c := g.cellOf(p)
		g.buckets[c] = append(g.buckets[c], i)
	}
	return g
}

// cellOf returns the cell coordinates of p.
func (g *Grid) cellOf(p Point) [2]int {
	return [2]int{int((p.X - g.minX) / g.cell), int((p.Y - g.minY) / g.cell)}
}

// ForEachPairWithin calls fn(i, j) once for every pair i < j with
// Dist(pts[i], pts[j]) ≤ r (closed disk), in deterministic order: i
// ascending, and for each i the candidate js in fixed cell-scan order.
// r must be at most the grid's cell side, which confines each point's
// candidates to the 3×3 cell neighborhood; larger radii panic rather than
// silently miss pairs.
func (g *Grid) ForEachPairWithin(r float64, fn func(i, j int)) {
	if g.buckets == nil || r <= 0 {
		return
	}
	if r > g.cell {
		panic("geom: Grid.ForEachPairWithin radius exceeds cell side")
	}
	r2 := r * r
	for i, p := range g.pts {
		c := g.cellOf(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range g.buckets[[2]int{c[0] + dx, c[1] + dy}] {
					if j <= i {
						continue
					}
					if p.Dist2(g.pts[j]) <= r2 {
						fn(i, j)
					}
				}
			}
		}
	}
}

// RangeCircle returns the indices of all points within Euclidean distance
// radius of center (closed disk), in ascending index order.
func (g *Grid) RangeCircle(center Point, radius float64) []int {
	var out []int
	if g.buckets == nil || radius < 0 {
		return out
	}
	r2 := radius * radius
	span := 0
	if g.cell > 0 {
		span = int(radius / g.cell)
	}
	c := g.cellOf(center)
	for dx := -span - 1; dx <= span+1; dx++ {
		for dy := -span - 1; dy <= span+1; dy++ {
			for _, j := range g.buckets[[2]int{c[0] + dx, c[1] + dy}] {
				if g.pts[j].Dist2(center) <= r2 {
					out = append(out, j)
				}
			}
		}
	}
	sort.Ints(out)
	return out
}
