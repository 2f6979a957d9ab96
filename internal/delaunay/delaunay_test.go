package delaunay

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"geospanner/internal/geom"
)

func randPoints(r *rand.Rand, n int, span float64) []geom.Point {
	pts := make([]geom.Point, 0, n)
	seen := make(map[geom.Point]struct{}, n)
	for len(pts) < n {
		p := geom.Pt(r.Float64()*span, r.Float64()*span)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		pts = append(pts, p)
	}
	return pts
}

func TestTriangulateSmallCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		tr, err := Triangulate(nil)
		if err != nil || len(tr.Triangles) != 0 || len(tr.Edges()) != 0 {
			t.Fatalf("unexpected: %v %v", tr, err)
		}
	})
	t.Run("two points", func(t *testing.T) {
		tr, err := Triangulate([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)})
		if err != nil || len(tr.Triangles) != 0 {
			t.Fatalf("unexpected: %v %v", tr, err)
		}
	})
	t.Run("triangle", func(t *testing.T) {
		tr, err := Triangulate([]geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(0, 3)})
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Triangles) != 1 {
			t.Fatalf("got %d triangles, want 1", len(tr.Triangles))
		}
		if got := len(tr.Edges()); got != 3 {
			t.Fatalf("got %d edges, want 3", got)
		}
	})
	t.Run("collinear", func(t *testing.T) {
		tr, err := Triangulate([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3)})
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Triangles) != 0 {
			t.Fatalf("collinear points produced triangles: %v", tr.Triangles)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		_, err := Triangulate([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(0, 0)})
		if !errors.Is(err, ErrDuplicatePoints) {
			t.Fatalf("err = %v, want ErrDuplicatePoints", err)
		}
	})
}

func TestTriangulateQuad(t *testing.T) {
	// Non-co-circular quadrilateral: the Delaunay diagonal is forced.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 3), geom.Pt(0, 5)}
	tr, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Triangles) != 2 {
		t.Fatalf("got %d triangles, want 2", len(tr.Triangles))
	}
	assertDelaunay(t, tr)
}

// assertDelaunay verifies the empty-circumcircle property by brute force.
func assertDelaunay(t *testing.T, tr *Triangulation) {
	t.Helper()
	for _, triangle := range tr.Triangles {
		a := tr.Points[triangle.A]
		b := tr.Points[triangle.B]
		c := tr.Points[triangle.C]
		if geom.Orient(a, b, c) != geom.Positive {
			t.Fatalf("triangle %v is not counterclockwise", triangle)
		}
		for i, p := range tr.Points {
			if triangle.Has(i) {
				continue
			}
			if geom.InCircle(a, b, c, p) == geom.Positive {
				t.Fatalf("point %d (%v) strictly inside circumcircle of %v", i, p, triangle)
			}
		}
	}
}

func TestTriangulateRandomIsDelaunay(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		n := 4 + r.Intn(60)
		tr, err := Triangulate(randPoints(r, n, 100))
		if err != nil {
			t.Fatal(err)
		}
		assertDelaunay(t, tr)
	}
}

func TestTriangulateEulerFormula(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(80)
		pts := randPoints(r, n, 1000)
		tr, err := Triangulate(pts)
		if err != nil {
			t.Fatal(err)
		}
		h := len(geom.ConvexHull(pts))
		// General position (random floats): T = 2n - 2 - h, E = 3n - 3 - h.
		if got, want := len(tr.Triangles), 2*n-2-h; got != want {
			t.Fatalf("trial %d: %d triangles, want %d (n=%d h=%d)", trial, got, want, n, h)
		}
		if got, want := len(tr.Edges()), 3*n-3-h; got != want {
			t.Fatalf("trial %d: %d edges, want %d (n=%d h=%d)", trial, got, want, n, h)
		}
	}
}

func TestTriangulatePlanar(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pts := randPoints(r, 40, 50)
	tr, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	edges := tr.Edges()
	for i := range edges {
		for j := i + 1; j < len(edges); j++ {
			s1 := geom.Seg(pts[edges[i].U], pts[edges[i].V])
			s2 := geom.Seg(pts[edges[j].U], pts[edges[j].V])
			if s1.CrossesProperly(s2) {
				t.Fatalf("edges %v and %v cross", edges[i], edges[j])
			}
		}
	}
}

func TestTriangulateContainsNearestNeighborEdges(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 50, 200)
	tr, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		best, bestD := -1, math.Inf(1)
		for j := range pts {
			if i == j {
				continue
			}
			if d := pts[i].Dist2(pts[j]); d < bestD {
				best, bestD = j, d
			}
		}
		if !tr.HasEdge(i, best) {
			t.Fatalf("nearest-neighbor edge (%d,%d) missing", i, best)
		}
	}
}

func TestTriangulateContainsGabrielEdges(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := randPoints(r, 40, 100)
	tr, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			gabriel := true
			for k := range pts {
				if k == i || k == j {
					continue
				}
				if geom.InDiametralDisk(pts[i], pts[j], pts[k]) {
					gabriel = false
					break
				}
			}
			if gabriel && !tr.HasEdge(i, j) {
				t.Fatalf("Gabriel edge (%d,%d) missing from Delaunay", i, j)
			}
		}
	}
}

func TestTriangulateCoverageArea(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := randPoints(r, 60, 300)
	tr, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	var triArea float64
	for _, triangle := range tr.Triangles {
		a := tr.Points[triangle.A]
		b := tr.Points[triangle.B]
		c := tr.Points[triangle.C]
		triArea += geom.PolygonArea([]geom.Point{a, b, c})
	}
	hullArea := geom.PolygonArea(geom.ConvexHull(pts))
	if math.Abs(triArea-hullArea) > 1e-6*hullArea {
		t.Fatalf("triangle area %v != hull area %v", triArea, hullArea)
	}
}

func TestTriangulateCocircular(t *testing.T) {
	// A perfect 4-point square plus center: co-circular ties must still
	// produce a valid triangulation (4 triangles around the center).
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2), geom.Pt(1, 1),
	}
	tr, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Triangles) != 4 {
		t.Fatalf("got %d triangles, want 4: %v", len(tr.Triangles), tr.Triangles)
	}
	assertDelaunay(t, tr)
}

func TestTriangulateCocircularOnly(t *testing.T) {
	// Only the square: either diagonal is a valid (weak) Delaunay choice.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2)}
	tr, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Triangles) != 2 {
		t.Fatalf("got %d triangles, want 2: %v", len(tr.Triangles), tr.Triangles)
	}
	// Weak Delaunay: no point strictly inside any circumcircle.
	assertDelaunay(t, tr)
}

func TestTriangulateGrid(t *testing.T) {
	// Integer grid: many co-circular quadruples at once.
	var pts []geom.Point
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	tr, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	assertDelaunay(t, tr)
	// 25 points, hull has 16 vertices (all boundary points are hull
	// vertices only at corners... with collinear boundary points the
	// strict hull has 4 vertices). Coverage area must equal 16.
	var triArea float64
	for _, triangle := range tr.Triangles {
		triArea += geom.PolygonArea([]geom.Point{
			tr.Points[triangle.A], tr.Points[triangle.B], tr.Points[triangle.C],
		})
	}
	if math.Abs(triArea-16) > 1e-9 {
		t.Fatalf("grid coverage area = %v, want 16", triArea)
	}
}

func TestCanonical(t *testing.T) {
	tr := Triangle{A: 5, B: 1, C: 3}
	c := tr.Canonical()
	if c.A != 1 || c.B != 3 || c.C != 5 {
		t.Fatalf("Canonical = %v", c)
	}
	// Orientation preserved: (5,1,3) -> (1,3,5) is the same cyclic order.
	if (Triangle{A: 1, B: 3, C: 5}).Canonical() != c {
		t.Fatal("cyclic rotations should canonicalize equally")
	}
}

func TestMakeEdge(t *testing.T) {
	if MakeEdge(5, 2) != (Edge{U: 2, V: 5}) {
		t.Fatal("MakeEdge should normalize order")
	}
	if MakeEdge(2, 5) != MakeEdge(5, 2) {
		t.Fatal("MakeEdge not symmetric")
	}
}

func TestValidate(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	tr, err := Triangulate(randPoints(r, 40, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a triangle: validation must notice.
	if len(tr.Triangles) > 0 {
		tr.Triangles[0].A, tr.Triangles[0].B = tr.Triangles[0].B, tr.Triangles[0].A
		if err := tr.Validate(); err == nil {
			t.Fatal("validation missed a clockwise triangle")
		}
	}
}
