package routing

import (
	"errors"
	"testing"

	"geospanner/internal/core"
	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/proximity"
	"geospanner/internal/udg"
)

// cShape builds a planar path graph bent around a void so greedy routing
// from src (last node) to dst (node 0) gets stuck immediately.
func cShape() (*graph.Graph, int, int) {
	pts := []geom.Point{
		geom.Pt(0, 0), // dst
		geom.Pt(0, 1),
		geom.Pt(1, 2),
		geom.Pt(2, 2),
		geom.Pt(3, 1),
		geom.Pt(3, 0), // src
	}
	g := udg.Build(pts, 1.5)
	g.RemoveEdge(0, 5) // ensure the void: no direct shortcut
	return g, 5, 0
}

func TestGreedyDelivers(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	g := udg.Build(pts, 1)
	path, err := RouteGreedy(g, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0] != 0 || path[2] != 2 {
		t.Fatalf("path = %v", path)
	}
}

func TestGreedyStuckAtVoid(t *testing.T) {
	g, src, dst := cShape()
	_, err := RouteGreedy(g, src, dst, 0)
	if !errors.Is(err, ErrGreedyStuck) {
		t.Fatalf("err = %v, want ErrGreedyStuck", err)
	}
}

func TestGFGRecoversAtVoid(t *testing.T) {
	g, src, dst := cShape()
	path, err := RouteGFG(g, src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != src || path[len(path)-1] != dst {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	if err := ValidatePath(path, g); err != nil {
		t.Fatal(err)
	}
}

func TestGFGSelfRoute(t *testing.T) {
	g, src, _ := cShape()
	path, err := RouteGFG(g, src, src, 0)
	if err != nil || len(path) != 1 {
		t.Fatalf("self route = %v, %v", path, err)
	}
}

// TestGFGDeliversOnGabriel: all-pairs guaranteed delivery on planar
// connected Gabriel graphs.
func TestGFGDeliversOnGabriel(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		inst, err := udg.ConnectedInstance(seed, 35, 200, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		gg := proximity.Gabriel(inst.UDG)
		for s := 0; s < gg.N(); s++ {
			for d := 0; d < gg.N(); d++ {
				if s == d {
					continue
				}
				path, err := RouteGFG(gg, s, d, 0)
				if err != nil {
					t.Fatalf("seed %d: GFG failed %d->%d: %v", seed, s, d, err)
				}
				if path[0] != s || path[len(path)-1] != d {
					t.Fatalf("seed %d: bad endpoints %d->%d: %v", seed, s, d, path)
				}
				if err := ValidatePath(path, gg); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
	}
}

// TestGFGDeliversOnBackbone: delivery between all backbone pairs on the
// paper's planar LDel(ICDS) structure.
func TestGFGDeliversOnBackbone(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		inst, err := udg.ConnectedInstance(seed, 60, 200, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.BuildCentralized(inst.UDG, inst.Radius)
		if err != nil {
			t.Fatal(err)
		}
		bb := res.Conn.Backbone
		for _, s := range bb {
			for _, d := range bb {
				if s == d {
					continue
				}
				path, err := RouteGFG(res.LDelICDS, s, d, 0)
				if err != nil {
					t.Fatalf("seed %d: GFG failed %d->%d on LDel(ICDS): %v", seed, s, d, err)
				}
				if err := ValidatePath(path, res.LDelICDS); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
	}
}

func TestRouteDS(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		inst, err := udg.ConnectedInstance(seed, 50, 200, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.BuildCentralized(inst.UDG, inst.Radius)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < inst.UDG.N(); s += 3 {
			for d := 0; d < inst.UDG.N(); d += 7 {
				path, err := RouteDS(inst.UDG, res.LDelICDS, res.Cluster.DominatorsOf,
					res.Conn.InBackbone, s, d, 0)
				if err != nil {
					t.Fatalf("seed %d: DS route %d->%d: %v", seed, s, d, err)
				}
				if path[0] != s || path[len(path)-1] != d {
					t.Fatalf("bad endpoints: %v", path)
				}
				// Every step is either a UDG up/down link or a backbone
				// link.
				if err := ValidatePath(path, res.LDelICDS, inst.UDG); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
	}
}

func TestRouteDSAdjacentDirect(t *testing.T) {
	inst, err := udg.ConnectedInstance(1, 30, 200, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCentralized(inst.UDG, inst.Radius)
	if err != nil {
		t.Fatal(err)
	}
	var u, v int
	found := false
	for _, e := range inst.UDG.Edges() {
		u, v = e.U, e.V
		found = true
		break
	}
	if !found {
		t.Fatal("no edges")
	}
	path, err := RouteDS(inst.UDG, res.LDelICDS, res.Cluster.DominatorsOf, res.Conn.InBackbone, u, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Fatalf("adjacent pair should route directly: %v", path)
	}
}

func TestValidatePath(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	g := udg.Build(pts, 1)
	if err := ValidatePath([]int{0, 1, 2}, g); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePath([]int{0, 2}, g); err == nil {
		t.Fatal("expected invalid path error")
	}
}

func TestGFGPathNotAbsurdlyLong(t *testing.T) {
	inst, err := udg.ConnectedInstance(4, 40, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	gg := proximity.Gabriel(inst.UDG)
	for s := 0; s < gg.N(); s += 5 {
		for d := 1; d < gg.N(); d += 6 {
			if s == d {
				continue
			}
			path, err := RouteGFG(gg, s, d, 0)
			if err != nil {
				t.Fatal(err)
			}
			opt := gg.HopDist(s, d)
			if len(path)-1 > 12*opt+20 {
				t.Fatalf("GFG path %d->%d has %d hops vs optimal %d", s, d, len(path)-1, opt)
			}
		}
	}
}
