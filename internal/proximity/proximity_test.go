package proximity

import (
	"testing"

	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/udg"
)

func instance(t *testing.T, seed int64, n int, r float64) *udg.Instance {
	t.Helper()
	inst, err := udg.ConnectedInstance(seed, n, 200, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func subset(t *testing.T, name string, sub, super *graph.Graph) {
	t.Helper()
	for _, e := range sub.Edges() {
		if !super.HasEdge(e.U, e.V) {
			t.Fatalf("%s edge %v missing from supergraph", name, e)
		}
	}
}

func TestHierarchyRNGSubsetGGSubsetUDel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		inst := instance(t, seed, 60, 60)
		rng := RNG(inst.UDG)
		gg := Gabriel(inst.UDG)
		udel, err := UDel(inst.UDG)
		if err != nil {
			t.Fatal(err)
		}
		// Classical containment chain: MST ⊆ RNG ⊆ GG ⊆ UDel ⊆ UDG.
		subset(t, "MST", MST(inst.UDG), rng)
		subset(t, "RNG", rng, gg)
		subset(t, "GG", gg, udel)
		subset(t, "UDel", udel, inst.UDG)
	}
}

func TestRNGConnected(t *testing.T) {
	for seed := int64(10); seed < 16; seed++ {
		inst := instance(t, seed, 50, 60)
		if !RNG(inst.UDG).Connected() {
			t.Fatalf("seed %d: RNG disconnected", seed)
		}
	}
}

func TestGabrielPlanar(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		inst := instance(t, seed, 50, 60)
		if !Gabriel(inst.UDG).IsPlanarEmbedding() {
			t.Fatalf("seed %d: Gabriel graph not planar", seed)
		}
	}
}

func TestRNGPlanar(t *testing.T) {
	inst := instance(t, 1, 80, 60)
	if !RNG(inst.UDG).IsPlanarEmbedding() {
		t.Fatal("RNG not planar")
	}
}

func TestRNGSmall(t *testing.T) {
	// Equilateral-ish triangle: all edges survive RNG (no witness strictly
	// inside any lune).
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, 0.9)}
	g := udg.Build(pts, 2)
	rng := RNG(g)
	if rng.NumEdges() != 3 {
		t.Fatalf("triangle RNG has %d edges, want 3", rng.NumEdges())
	}
	// Add a center point: the long edges lose to the center witness.
	pts2 := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(1, 0.2)}
	g2 := udg.Build(pts2, 3)
	rng2 := RNG(g2)
	if rng2.HasEdge(0, 1) {
		t.Fatal("RNG kept edge with a lune witness")
	}
	if !rng2.HasEdge(0, 2) || !rng2.HasEdge(2, 1) {
		t.Fatal("RNG dropped witness edges")
	}
}

func TestGabrielSmall(t *testing.T) {
	// Witness exactly on the diameter circle boundary does not remove the
	// edge (open disk).
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(1, 1)}
	g := udg.Build(pts, 3)
	gg := Gabriel(g)
	if !gg.HasEdge(0, 1) {
		t.Fatal("Gabriel removed edge with boundary witness")
	}
	// Witness strictly inside removes it.
	pts2 := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(1, 0.5)}
	g2 := udg.Build(pts2, 3)
	gg2 := Gabriel(g2)
	if gg2.HasEdge(0, 1) {
		t.Fatal("Gabriel kept edge with interior witness")
	}
}

func TestYaoBasic(t *testing.T) {
	inst := instance(t, 3, 60, 60)
	y, err := Yao(inst.UDG, 6)
	if err != nil {
		t.Fatal(err)
	}
	subset(t, "Yao", y, inst.UDG)
	if !y.Connected() {
		t.Fatal("Yao(6) disconnected on connected UDG")
	}
	// Out-degree bound: at most k cones per node, so edges <= k*n.
	if y.NumEdges() > 6*inst.UDG.N() {
		t.Fatalf("Yao has %d edges, exceeds k*n", y.NumEdges())
	}
}

func TestYaoInvalidK(t *testing.T) {
	inst := instance(t, 4, 10, 100)
	if _, err := Yao(inst.UDG, 1); err == nil {
		t.Fatal("expected error for k < 2")
	}
}

func TestYaoConeSelection(t *testing.T) {
	// Two neighbors in the same cone: only the nearest is linked by u.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0.1), geom.Pt(2, 0.2)}
	g := udg.Build(pts, 5)
	y, err := Yao(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !y.HasEdge(0, 1) {
		t.Fatal("Yao dropped nearest in-cone neighbor")
	}
	// Edge (0,2) may still appear via node 2's own cone toward 0? No:
	// node 2 sees 1 nearer in the same cone, so (0,2) must be absent.
	if y.HasEdge(0, 2) {
		t.Fatal("Yao kept dominated in-cone edge")
	}
}

func TestMSTProperties(t *testing.T) {
	inst := instance(t, 8, 50, 60)
	mst := MST(inst.UDG)
	if !mst.Connected() {
		t.Fatal("MST of connected graph disconnected")
	}
	if mst.NumEdges() != inst.UDG.N()-1 {
		t.Fatalf("MST has %d edges, want n-1 = %d", mst.NumEdges(), inst.UDG.N()-1)
	}
	subset(t, "MST", mst, inst.UDG)
}

func TestMSTForest(t *testing.T) {
	// Two distant pairs: spanning forest with one edge per component.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(100, 0), geom.Pt(101, 0)}
	g := udg.Build(pts, 2)
	mst := MST(g)
	if mst.NumEdges() != 2 {
		t.Fatalf("forest has %d edges, want 2", mst.NumEdges())
	}
}

func TestUDelPlanarAndSparse(t *testing.T) {
	inst := instance(t, 12, 70, 60)
	udel, err := UDel(inst.UDG)
	if err != nil {
		t.Fatal(err)
	}
	if !udel.IsPlanarEmbedding() {
		t.Fatal("UDel not planar")
	}
	if udel.NumEdges() > 3*inst.UDG.N() {
		t.Fatalf("UDel has %d edges, exceeds 3n", udel.NumEdges())
	}
}
