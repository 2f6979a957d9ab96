package udg

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"geospanner/internal/geom"
)

func TestBuildSmall(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(3, 0)}
	g := Build(pts, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("edge at exactly radius distance must exist")
	}
	if g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("edges beyond radius must not exist")
	}
}

func TestBuildMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(120)
		region := 10 + r.Float64()*200
		radius := region * (0.05 + r.Float64()*0.4)
		pts := RandomPoints(r, n, region)
		fast := Build(pts, radius)
		slow := BuildBruteForce(pts, radius)
		if fast.NumEdges() != slow.NumEdges() {
			t.Fatalf("trial %d: fast %d edges, brute %d", trial, fast.NumEdges(), slow.NumEdges())
		}
		for _, e := range slow.Edges() {
			if !fast.HasEdge(e.U, e.V) {
				t.Fatalf("trial %d: grid index missed edge %v", trial, e)
			}
		}
	}
}

// TestBuildClusteredMatchesBruteForce checks the grid-indexed Build on
// clustered placements: many points per grid cell, many empty cells.
func TestBuildClusteredMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 5; trial++ {
		pts, err := GeneratePoints(r, Clustered, 200, 200)
		if err != nil {
			t.Fatal(err)
		}
		fast, slow := Build(pts, 30), BuildBruteForce(pts, 30)
		if fast.NumEdges() != slow.NumEdges() {
			t.Fatalf("clustered trial %d: fast %d edges, brute %d", trial, fast.NumEdges(), slow.NumEdges())
		}
		for _, e := range slow.Edges() {
			if !fast.HasEdge(e.U, e.V) {
				t.Fatalf("clustered trial %d: grid index missed edge %v", trial, e)
			}
		}
	}
}

func TestBuildEmptyAndZeroRadius(t *testing.T) {
	if g := Build(nil, 1); g.N() != 0 {
		t.Fatal("empty input should give empty graph")
	}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.1, 0)}
	if g := Build(pts, 0); g.NumEdges() != 0 {
		t.Fatal("zero radius should give no edges")
	}
}

func TestRandomPointsInRegionAndDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := RandomPoints(r, 500, 50)
	seen := make(map[geom.Point]struct{}, len(pts))
	for _, p := range pts {
		if p.X < 0 || p.X > 50 || p.Y < 0 || p.Y > 50 {
			t.Fatalf("point %v outside region", p)
		}
		if _, dup := seen[p]; dup {
			t.Fatalf("duplicate point %v", p)
		}
		seen[p] = struct{}{}
	}
}

func TestConnectedInstance(t *testing.T) {
	inst, err := ConnectedInstance(7, 50, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.UDG.Connected() {
		t.Fatal("instance not connected")
	}
	if inst.UDG.N() != 50 {
		t.Fatalf("n = %d, want 50", inst.UDG.N())
	}
}

func TestConnectedInstanceDeterministic(t *testing.T) {
	a, err := ConnectedInstance(42, 30, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConnectedInstance(42, 30, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if !a.Points[i].Eq(b.Points[i]) {
			t.Fatal("same seed produced different instances")
		}
	}
}

func TestConnectedInstanceImpossible(t *testing.T) {
	// Two nodes in a huge region with a tiny radius: connection is
	// (essentially) impossible, so the budget must be exhausted.
	_, err := ConnectedInstance(1, 2, 1e9, 1e-9, 5)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
}

// TestRadiusMonotonicity: growing the radius only adds edges.
func TestRadiusMonotonicity(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	pts := RandomPoints(r, 80, 200)
	prev := Build(pts, 10)
	for _, radius := range []float64{20, 35, 50, 80, 120} {
		cur := Build(pts, radius)
		for _, e := range prev.Edges() {
			if !cur.HasEdge(e.U, e.V) {
				t.Fatalf("radius %g lost edge %v", radius, e)
			}
		}
		if cur.NumEdges() < prev.NumEdges() {
			t.Fatalf("edge count decreased at radius %g", radius)
		}
		prev = cur
	}
}

// TestBoundaryDistanceExact: nodes at exactly the radius are linked; one
// ulp beyond are not.
func TestBoundaryDistanceExact(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(60, 0)}
	if !Build(pts, 60).HasEdge(0, 1) {
		t.Fatal("exact-radius pair must be linked")
	}
	beyond := []geom.Point{geom.Pt(0, 0), geom.Pt(math.Nextafter(60, 61), 0)}
	if Build(beyond, 60).HasEdge(0, 1) {
		t.Fatal("one-ulp-beyond pair must not be linked")
	}
}
