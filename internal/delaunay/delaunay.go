// Package delaunay implements the Delaunay triangulation of a planar point
// set using an incremental Bowyer–Watson construction on top of the robust
// predicates in internal/geom.
//
// The triangulation is used in two ways by the spanner pipeline:
//
//   - globally, to build the UDel baseline (Delaunay edges no longer than
//     the transmission radius), and
//   - per node, to compute the Delaunay triangulation of a node's 1-hop
//     neighborhood — the building block of the localized Delaunay graph
//     LDel (Li, Calinescu, Wan, INFOCOM 2002), reviewed as Algorithm 2 of
//     the reproduced paper.
//
// Ties between co-circular points are broken by insertion order; the paper
// assumes no four points are co-circular, and the pipeline's random
// instances satisfy that with probability one.
package delaunay

import (
	"errors"
	"fmt"
	"sort"

	"geospanner/internal/geom"
)

// ErrDuplicatePoints is returned when the input contains two points with
// exactly equal coordinates. Network nodes always have distinct positions.
var ErrDuplicatePoints = errors.New("delaunay: duplicate input points")

// Triangle is a triangle of the triangulation. A, B, C index into the point
// slice passed to Triangulate and are stored in counterclockwise order.
type Triangle struct {
	A, B, C int
}

// Canonical returns the triangle with its vertex indices rotated so the
// smallest index comes first, preserving orientation. Two triangles on the
// same vertices in the same orientation compare equal after Canonical.
func (t Triangle) Canonical() Triangle {
	for t.A > t.B || t.A > t.C {
		t.A, t.B, t.C = t.B, t.C, t.A
	}
	return t
}

// Has reports whether vertex index v is a corner of t.
func (t Triangle) Has(v int) bool { return t.A == v || t.B == v || t.C == v }

// String implements fmt.Stringer.
func (t Triangle) String() string { return fmt.Sprintf("△(%d,%d,%d)", t.A, t.B, t.C) }

// Edge is an undirected edge between two point indices, normalized so
// U < V.
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

// Triangulation is the result of Triangulate.
type Triangulation struct {
	// Points is the input point slice (not copied).
	Points []geom.Point
	// Triangles lists all Delaunay triangles in counterclockwise order.
	Triangles []Triangle

	edgeSet map[Edge]struct{}
}

// Triangulate computes the Delaunay triangulation of pts. The input slice
// is not modified. Inputs with fewer than three points, or with all points
// collinear, produce a triangulation with no triangles (Edges is then
// empty; callers needing connectivity on degenerate inputs must handle it,
// as the LDel construction does through its Gabriel edges).
func Triangulate(pts []geom.Point) (*Triangulation, error) {
	seen := make(map[geom.Point]struct{}, len(pts))
	for _, p := range pts {
		if _, dup := seen[p]; dup {
			return nil, ErrDuplicatePoints
		}
		seen[p] = struct{}{}
	}

	tri := &Triangulation{Points: pts}
	if len(pts) < 3 {
		tri.buildEdgeSet()
		return tri, nil
	}

	bw := newBowyerWatson(pts)
	for i := range pts {
		bw.insert(i)
	}
	tri.Triangles = bw.realTriangles()
	tri.buildEdgeSet()
	return tri, nil
}

// Edges returns all undirected edges of the triangulation in deterministic
// (sorted) order.
func (t *Triangulation) Edges() []Edge {
	edges := make([]Edge, 0, len(t.edgeSet))
	for e := range t.edgeSet {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return edges
}

// HasEdge reports whether {i, j} is an edge of the triangulation.
func (t *Triangulation) HasEdge(i, j int) bool {
	_, ok := t.edgeSet[MakeEdge(i, j)]
	return ok
}

func (t *Triangulation) buildEdgeSet() {
	t.edgeSet = make(map[Edge]struct{}, 3*len(t.Triangles))
	for _, tr := range t.Triangles {
		t.edgeSet[MakeEdge(tr.A, tr.B)] = struct{}{}
		t.edgeSet[MakeEdge(tr.B, tr.C)] = struct{}{}
		t.edgeSet[MakeEdge(tr.C, tr.A)] = struct{}{}
	}
}

// bowyerWatson holds the construction state. Vertex indices 0..n-1 refer to
// real points; n, n+1, n+2 are the super-triangle vertices placed far
// outside the input's bounding box.
type bowyerWatson struct {
	pts   []geom.Point // real points followed by the 3 super vertices
	nReal int
	tris  []Triangle
	alive []bool
}

func newBowyerWatson(pts []geom.Point) *bowyerWatson {
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := minX, minY
	for _, p := range pts[1:] {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	cx, cy := (minX+maxX)/2, (minY+maxY)/2
	span := (maxX - minX) + (maxY - minY) + 1
	// Far enough that no circumcircle of (non-degenerate) real triangles
	// reaches a super vertex in practice; exact predicates keep the large
	// coordinates safe.
	m := span * 1e9

	all := make([]geom.Point, len(pts), len(pts)+3)
	copy(all, pts)
	all = append(all,
		geom.Pt(cx-2*m, cy-m),
		geom.Pt(cx+2*m, cy-m),
		geom.Pt(cx, cy+2*m),
	)

	bw := &bowyerWatson{pts: all, nReal: len(pts)}
	n := len(pts)
	super := Triangle{A: n, B: n + 1, C: n + 2}
	if geom.Orient(all[super.A], all[super.B], all[super.C]) != geom.Positive {
		super.B, super.C = super.C, super.B
	}
	bw.tris = append(bw.tris, super)
	bw.alive = append(bw.alive, true)
	return bw
}

func (bw *bowyerWatson) insert(pi int) {
	p := bw.pts[pi]

	// Collect bad triangles: those whose open circumdisk contains p.
	type dirEdge struct{ a, b int }
	edgeCount := make(map[Edge]int)
	edgeDir := make(map[Edge]dirEdge)
	var hadBad bool
	for ti, tr := range bw.tris {
		if !bw.alive[ti] {
			continue
		}
		if geom.InCircle(bw.pts[tr.A], bw.pts[tr.B], bw.pts[tr.C], p) == geom.Positive {
			bw.alive[ti] = false
			hadBad = true
			for _, de := range [3]dirEdge{{tr.A, tr.B}, {tr.B, tr.C}, {tr.C, tr.A}} {
				e := MakeEdge(de.a, de.b)
				edgeCount[e]++
				edgeDir[e] = de
			}
		}
	}
	if !hadBad {
		// p is on (or outside) every circumcircle — co-circular tie or a
		// point exactly on an edge. Fall back to locating the containing
		// triangle and splitting it so the point is not lost.
		bw.insertBySplit(pi)
		return
	}

	// The cavity boundary consists of edges seen exactly once. New
	// triangles fan from p, preserving the boundary edge direction so
	// orientation stays counterclockwise.
	for e, cnt := range edgeCount {
		if cnt != 1 {
			continue
		}
		d := edgeDir[e]
		bw.addTriangle(Triangle{A: d.a, B: d.b, C: pi})
	}
}

// insertBySplit handles the rare tie case where the inserted point is
// strictly inside no circumcircle (e.g. exactly co-circular with an
// existing triangle). It splits the triangle containing the point.
func (bw *bowyerWatson) insertBySplit(pi int) {
	p := bw.pts[pi]
	for ti, tr := range bw.tris {
		if !bw.alive[ti] {
			continue
		}
		oab := geom.Orient(bw.pts[tr.A], bw.pts[tr.B], p)
		obc := geom.Orient(bw.pts[tr.B], bw.pts[tr.C], p)
		oca := geom.Orient(bw.pts[tr.C], bw.pts[tr.A], p)
		if oab == geom.Negative || obc == geom.Negative || oca == geom.Negative {
			continue
		}
		bw.alive[ti] = false
		if oab != geom.Zero {
			bw.addTriangle(Triangle{A: tr.A, B: tr.B, C: pi})
		}
		if obc != geom.Zero {
			bw.addTriangle(Triangle{A: tr.B, B: tr.C, C: pi})
		}
		if oca != geom.Zero {
			bw.addTriangle(Triangle{A: tr.C, B: tr.A, C: pi})
		}
		return
	}
	// Point coincides with an existing vertex or lies outside the super
	// triangle; both are impossible for deduplicated in-box inputs.
}

func (bw *bowyerWatson) addTriangle(t Triangle) {
	bw.tris = append(bw.tris, t)
	bw.alive = append(bw.alive, true)
}

// realTriangles returns the surviving triangles that touch no super vertex,
// in deterministic order.
func (bw *bowyerWatson) realTriangles() []Triangle {
	var out []Triangle
	for ti, tr := range bw.tris {
		if !bw.alive[ti] {
			continue
		}
		if tr.A >= bw.nReal || tr.B >= bw.nReal || tr.C >= bw.nReal {
			continue
		}
		out = append(out, tr.Canonical())
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.C < b.C
	})
	return out
}

// Validate verifies the Delaunay property by brute force: no input point
// lies strictly inside any triangle's circumcircle, and every triangle is
// counterclockwise. It exists for downstream debugging and for tests of
// code that perturbs triangulations.
func (t *Triangulation) Validate() error {
	for _, tr := range t.Triangles {
		a, b, c := t.Points[tr.A], t.Points[tr.B], t.Points[tr.C]
		if geom.Orient(a, b, c) != geom.Positive {
			return fmt.Errorf("delaunay: triangle %v is not counterclockwise", tr)
		}
		for i, p := range t.Points {
			if tr.Has(i) {
				continue
			}
			if geom.InCircle(a, b, c, p) == geom.Positive {
				return fmt.Errorf("delaunay: point %d inside circumcircle of %v", i, tr)
			}
		}
	}
	return nil
}
