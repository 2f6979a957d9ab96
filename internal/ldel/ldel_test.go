package ldel

import (
	"reflect"
	"testing"

	"geospanner/internal/cluster"
	"geospanner/internal/connector"
	"geospanner/internal/delaunay"
	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/udg"
)

func TestNewTriKey(t *testing.T) {
	perms := [][3]int{{1, 2, 3}, {3, 2, 1}, {2, 1, 3}, {3, 1, 2}, {1, 3, 2}, {2, 3, 1}}
	want := TriKey{1, 2, 3}
	for _, p := range perms {
		if got := NewTriKey(p[0], p[1], p[2]); got != want {
			t.Fatalf("NewTriKey(%v) = %v", p, got)
		}
	}
	if !want.Has(2) || want.Has(9) {
		t.Fatal("TriKey.Has broken")
	}
	edges := want.Edges()
	if edges[0] != graph.MakeEdge(1, 2) || edges[1] != graph.MakeEdge(2, 3) || edges[2] != graph.MakeEdge(1, 3) {
		t.Fatalf("Edges = %v", edges)
	}
}

func TestTrianglesIntersect(t *testing.T) {
	a := [3]geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(1, 2)}
	b := [3]geom.Point{geom.Pt(1, -1), geom.Pt(1, 1), geom.Pt(3, 1)}
	if !trianglesIntersect(a, b) {
		t.Fatal("overlapping triangles reported disjoint")
	}
	c := [3]geom.Point{geom.Pt(10, 10), geom.Pt(11, 10), geom.Pt(10, 11)}
	if trianglesIntersect(a, c) {
		t.Fatal("distant triangles reported intersecting")
	}
	// Sharing an edge: no proper crossing.
	d := [3]geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(1, -2)}
	if trianglesIntersect(a, d) {
		t.Fatal("edge-sharing triangles reported intersecting")
	}
}

func TestRunMatchesCentralized(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		inst, err := udg.ConnectedInstance(seed, 50, 200, 70, 0)
		if err != nil {
			t.Fatal(err)
		}
		dist, _, err := Run(inst.UDG, nil, inst.Radius, 0)
		if err != nil {
			t.Fatal(err)
		}
		cent, err := Centralized(inst.UDG, nil, inst.Radius)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dist.Gabriel, cent.Gabriel) {
			t.Fatalf("seed %d: Gabriel edges differ", seed)
		}
		if !reflect.DeepEqual(dist.Triangles, cent.Triangles) {
			t.Fatalf("seed %d: surviving triangles differ:\ndist %v\ncent %v",
				seed, dist.Triangles, cent.Triangles)
		}
		if !reflect.DeepEqual(dist.LDel.Edges(), cent.LDel.Edges()) {
			t.Fatalf("seed %d: LDel graphs differ", seed)
		}
		if !reflect.DeepEqual(dist.PLDel.Edges(), cent.PLDel.Edges()) {
			t.Fatalf("seed %d: PLDel graphs differ", seed)
		}
	}
}

func TestPLDelPlanar(t *testing.T) {
	for seed := int64(10); seed < 22; seed++ {
		inst, err := udg.ConnectedInstance(seed, 60, 200, 65, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Centralized(inst.UDG, nil, inst.Radius)
		if err != nil {
			t.Fatal(err)
		}
		if crossings := res.PLDel.CrossingEdges(); len(crossings) != 0 {
			t.Fatalf("seed %d: PLDel has %d crossings, e.g. %v", seed, len(crossings), crossings[0])
		}
	}
}

func TestPLDelConnectedAndSpanning(t *testing.T) {
	for seed := int64(30); seed < 38; seed++ {
		inst, err := udg.ConnectedInstance(seed, 60, 200, 65, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Centralized(inst.UDG, nil, inst.Radius)
		if err != nil {
			t.Fatal(err)
		}
		if !res.PLDel.Connected() {
			t.Fatalf("seed %d: PLDel disconnected", seed)
		}
		// PLDel ⊆ LDel ⊆ UDG.
		for _, e := range res.PLDel.Edges() {
			if !res.LDel.HasEdge(e.U, e.V) {
				t.Fatalf("seed %d: PLDel edge %v missing from LDel", seed, e)
			}
		}
		for _, e := range res.LDel.Edges() {
			if !inst.UDG.HasEdge(e.U, e.V) {
				t.Fatalf("seed %d: LDel edge %v not in UDG", seed, e)
			}
		}
	}
}

// bruteGabriel is the Gabriel subgraph of the UDG g by brute force: every
// edge whose open diametral disk holds no other node, sorted.
func bruteGabriel(g *graph.Graph) []graph.Edge {
	pts := g.Points()
	var out []graph.Edge
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if !g.HasEdge(i, j) {
				continue
			}
			gabriel := true
			for k := range pts {
				if k != i && k != j && geom.InDiametralDisk(pts[i], pts[j], pts[k]) {
					gabriel = false
					break
				}
			}
			if gabriel {
				out = append(out, graph.MakeEdge(i, j))
			}
		}
	}
	return out
}

// TestGabrielEdgesInPLDel: the Gabriel edges both builds report are the
// Gabriel subgraph of the UDG, and PLDel keeps every one of them.
func TestGabrielEdgesInPLDel(t *testing.T) {
	inst, err := udg.ConnectedInstance(3, 50, 200, 70, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := Run(inst.UDG, nil, inst.Radius, 0)
	if err != nil {
		t.Fatal(err)
	}
	cent, err := Centralized(inst.UDG, nil, inst.Radius)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteGabriel(inst.UDG)
	for name, res := range map[string]*Result{"Run": dist, "Centralized": cent} {
		if !reflect.DeepEqual(res.Gabriel, want) {
			t.Fatalf("%s: Gabriel edges %v, brute force %v", name, res.Gabriel, want)
		}
		for _, e := range want {
			if !res.PLDel.HasEdge(e.U, e.V) {
				t.Fatalf("%s: Gabriel edge %v missing from PLDel", name, e)
			}
		}
	}
}

// TestPlanarizationHandBuiltPairs runs Algorithm 3 on two six-node
// instances, each holding two kept triangles {0,1,2} and {3,4,5}. {0,1,2}
// is thin with its obtuse corner at 2, so its circumcircle is large and
// holds node 3, which is out of range of 0, 1 and 2, while node 4 is a
// neighbor of node 0 lying just outside that circle, so node 0 hears of
// {3,4,5}. In "crossing" the two triangles cross (LDel¹ is not planar) and
// {0,1,2} must go; in "apart" they do not cross and both must stay, as a
// removal needs the crossing as well as the vertex in the circumcircle.
// Random instances almost never produce such pairs, so these are the
// cases that see each half of the removal test decide.
func TestPlanarizationHandBuiltPairs(t *testing.T) {
	for _, c := range []struct {
		name    string
		pts     []geom.Point
		crosses bool
		want    []TriKey
	}{
		{"crossing", []geom.Point{
			geom.Pt(-0.45, 0), geom.Pt(0.45, 0), geom.Pt(-0.42, 0.01),
			geom.Pt(0, -0.92), geom.Pt(-0.05, 0.077), geom.Pt(0.05, 0.077),
		}, true, []TriKey{{3, 4, 5}}},
		{"apart", []geom.Point{
			geom.Pt(-0.45, 0), geom.Pt(0.45, 0), geom.Pt(0, 0.05),
			geom.Pt(-1.2, -0.7), geom.Pt(-1.2, 0), geom.Pt(-1.6, -0.35),
		}, false, []TriKey{{0, 1, 2}, {3, 4, 5}}},
	} {
		g := udg.Build(c.pts, 1)
		p := c.pts
		if !g.HasEdge(0, 4) || geom.InCircleCCW(p[0], p[1], p[2], p[3]) != geom.Positive {
			t.Fatalf("%s: instance does not have the shape described", c.name)
		}
		dist, _, err := Run(g, nil, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		cent, err := Centralized(g, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*Result{"Run": dist, "Centralized": cent} {
			for _, tri := range []TriKey{{0, 1, 2}, {3, 4, 5}} {
				for _, e := range tri.Edges() {
					if !res.LDel.HasEdge(e.U, e.V) {
						t.Fatalf("%s/%s: LDel lacks edge %v of kept triangle %v", c.name, name, e, tri)
					}
				}
			}
			if crosses := len(res.LDel.CrossingEdges()) > 0; crosses != c.crosses {
				t.Fatalf("%s/%s: LDel¹ crossing = %v, want %v", c.name, name, crosses, c.crosses)
			}
			if !reflect.DeepEqual(res.Triangles, c.want) {
				t.Fatalf("%s/%s: surviving triangles %v, want %v", c.name, name, res.Triangles, c.want)
			}
			if x := res.PLDel.CrossingEdges(); len(x) != 0 {
				t.Fatalf("%s/%s: PLDel has crossings %v", c.name, name, x)
			}
		}
	}
}

// TestUDelSubsetOfLDel: every Delaunay edge no longer than the radius
// (UDel) appears in LDel¹ (a theorem of Li et al.).
func TestUDelSubsetOfLDel(t *testing.T) {
	inst, err := udg.ConnectedInstance(8, 50, 200, 70, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := delaunay.Triangulate(inst.Points)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Centralized(inst.UDG, nil, inst.Radius)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range full.Edges() {
		if !inst.UDG.HasEdge(e.U, e.V) {
			continue // longer than the radius
		}
		if !res.LDel.HasEdge(e.U, e.V) {
			t.Fatalf("UDel edge (%d,%d) missing from LDel", e.U, e.V)
		}
	}
}

func TestActiveSubsetOnly(t *testing.T) {
	// Build a backbone with the connector pipeline and run LDel over ICDS:
	// every edge must stay within the backbone.
	inst, err := udg.ConnectedInstance(12, 70, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.Centralized(inst.UDG)
	conn := connector.Centralized(inst.UDG, cl)
	res, _, err := Run(conn.ICDS, conn.InBackbone, inst.Radius, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.PLDel.Edges() {
		if !conn.InBackbone[e.U] || !conn.InBackbone[e.V] {
			t.Fatalf("PLDel edge %v leaves the backbone", e)
		}
		if !conn.ICDS.HasEdge(e.U, e.V) {
			t.Fatalf("PLDel edge %v not an ICDS edge", e)
		}
	}
	if crossings := res.PLDel.CrossingEdges(); len(crossings) != 0 {
		t.Fatalf("PLDel(ICDS) has crossings: %v", crossings)
	}
	if !res.PLDel.SubsetConnected(conn.Backbone) {
		t.Fatal("PLDel(ICDS) disconnected over backbone")
	}
	// Distributed and centralized agree on the subset run, too.
	cent, err := Centralized(conn.ICDS, conn.InBackbone, inst.Radius)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.PLDel.Edges(), cent.PLDel.Edges()) {
		t.Fatal("distributed/centralized PLDel(ICDS) differ")
	}
}

func TestLDelSquareWithCenter(t *testing.T) {
	// 4 corners within range of each other plus a center: LDel should be
	// planar and contain the center's star (Gabriel edges).
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1), geom.Pt(0.5, 0.5),
	}
	g := udg.Build(pts, 1.5)
	res, err := Centralized(g, nil, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if !res.PLDel.HasEdge(v, 4) {
			t.Fatalf("center edge (4,%d) missing", v)
		}
	}
	if !res.PLDel.IsPlanarEmbedding() {
		t.Fatal("PLDel not planar")
	}
}

func TestMessageCountsBounded(t *testing.T) {
	inst, err := udg.ConnectedInstance(44, 80, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, net, err := Run(inst.UDG, nil, inst.Radius, 0)
	if err != nil {
		t.Fatal(err)
	}
	byType := net.SentByType()
	// Location, TriangleInfo, RemainingInfo: exactly one per active node.
	n := inst.UDG.N()
	for _, typ := range []string{"Location", "TriangleInfo", "RemainingInfo"} {
		if byType[typ] != n {
			t.Fatalf("%s count = %d, want %d", typ, byType[typ], n)
		}
	}
	// Total messages linear in n with a modest constant.
	if total := net.TotalSent(); total > 30*n {
		t.Fatalf("total messages %d exceed 30n", total)
	}
}

func TestInactiveNodesSilent(t *testing.T) {
	inst, err := udg.ConnectedInstance(2, 30, 200, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	active := make([]bool, inst.UDG.N())
	for i := 0; i < len(active); i += 2 {
		active[i] = true
	}
	_, net, err := Run(inst.UDG, active, inst.Radius, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := range active {
		if !active[id] && net.Sent(id) != 0 {
			t.Fatalf("inactive node %d sent %d messages", id, net.Sent(id))
		}
	}
}
