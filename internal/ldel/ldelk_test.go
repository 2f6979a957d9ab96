package ldel

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"geospanner/internal/delaunay"
	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/udg"
)

func TestCentralizedKValidation(t *testing.T) {
	inst, err := udg.ConnectedInstance(1, 20, 200, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CentralizedK(inst.UDG, nil, inst.Radius, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestCentralizedK1EqualsCentralized(t *testing.T) {
	inst, err := udg.ConnectedInstance(2, 40, 200, 70, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Centralized(inst.UDG, nil, inst.Radius)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CentralizedK(inst.UDG, nil, inst.Radius, 1)
	if err != nil {
		t.Fatal(err)
	}
	ae, be := a.PLDel.Edges(), b.PLDel.Edges()
	if len(ae) != len(be) {
		t.Fatalf("k=1 variant differs: %d vs %d edges", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge mismatch at %d: %v vs %v", i, ae[i], be[i])
		}
	}
}

// TestLDel2PlanarWithoutPruning: for k >= 2 the raw LDel graph is already
// planar (Li et al.), so the planarization pass removes nothing.
func TestLDel2PlanarWithoutPruning(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		inst, err := udg.ConnectedInstance(seed, 50, 200, 65, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CentralizedK(inst.UDG, nil, inst.Radius, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !res.LDel.IsPlanarEmbedding() {
			t.Fatalf("seed %d: LDel² not planar before pruning", seed)
		}
		if res.LDel.NumEdges() != res.PLDel.NumEdges() {
			t.Fatalf("seed %d: pruning removed edges from planar LDel²", seed)
		}
	}
}

// TestLDelKMonotone: LDel^(k+1) ⊆ LDel^k — more knowledge never adds
// triangles — and UDel ⊆ LDel^k for every k.
func TestLDelKMonotone(t *testing.T) {
	inst, err := udg.ConnectedInstance(9, 50, 200, 65, 0)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := CentralizedK(inst.UDG, nil, inst.Radius, 1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CentralizedK(inst.UDG, nil, inst.Radius, 2)
	if err != nil {
		t.Fatal(err)
	}
	k3, err := CentralizedK(inst.UDG, nil, inst.Radius, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range k2.LDel.Edges() {
		if !k1.LDel.HasEdge(e.U, e.V) {
			t.Fatalf("LDel² edge %v missing from LDel¹", e)
		}
	}
	for _, e := range k3.LDel.Edges() {
		if !k2.LDel.HasEdge(e.U, e.V) {
			t.Fatalf("LDel³ edge %v missing from LDel²", e)
		}
	}
	// UDel ⊆ LDel^k for all k.
	full, err := delaunay.Triangulate(inst.Points)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{k1, k2, k3} {
		for _, e := range full.Edges() {
			if !inst.UDG.HasEdge(e.U, e.V) {
				continue
			}
			if !res.LDel.HasEdge(e.U, e.V) {
				t.Fatalf("UDel edge %v missing", e)
			}
		}
	}
	// All variants remain connected.
	for k, res := range map[int]*Result{1: k1, 2: k2, 3: k3} {
		if !res.PLDel.Connected() {
			t.Fatalf("PLDel^%d disconnected", k)
		}
	}
}

// TestCentralizedKGlobalKnowledge: with k ≥ n on a connected instance every
// node knows every position, so each local triangulation is the global
// one. LDel⁽ᵏ⁾ then keeps every all-short Delaunay triangle (each has an
// angle of at least π/3), planarization removes none (Delaunay triangles
// never cross), and the Gabriel edges are the brute-force Gabriel
// subgraph. The expected sets come from one global triangulation and a
// brute-force scan, not from the package's own rules. Besides random
// instances it runs a patch of the triangular lattice, whose triangles are
// all equilateral: there every angle sits on the π/3 threshold.
func TestCentralizedKGlobalKnowledge(t *testing.T) {
	type instance struct {
		name   string
		g      *graph.Graph
		radius float64
	}
	var cases []instance
	for seed := int64(0); seed < 6; seed++ {
		inst, err := udg.ConnectedInstance(seed, 40, 200, 70, 0)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{fmt.Sprintf("seed %d", seed), inst.UDG, inst.Radius})
	}
	var lattice []geom.Point
	for row := 0; row < 5; row++ {
		for col := 0; col < 5; col++ {
			lattice = append(lattice, geom.Pt(float64(col)+float64(row%2)/2, float64(row)*math.Sqrt(3)/2))
		}
	}
	cases = append(cases, instance{"lattice", udg.Build(lattice, 1.2), 1.2})

	for _, c := range cases {
		g := c.g
		res, err := CentralizedK(g, nil, c.radius, g.N())
		if err != nil {
			t.Fatal(err)
		}
		full, err := delaunay.Triangulate(g.Points())
		if err != nil {
			t.Fatal(err)
		}
		var want []TriKey
		for _, tr := range full.Triangles {
			if g.HasEdge(tr.A, tr.B) && g.HasEdge(tr.B, tr.C) && g.HasEdge(tr.A, tr.C) {
				want = append(want, NewTriKey(tr.A, tr.B, tr.C))
			}
		}
		sortTris(want)
		if len(want) == 0 || !reflect.DeepEqual(res.Triangles, want) {
			t.Fatalf("%s: triangles differ from the all-short global Delaunay triangles:\ngot  %v\nwant %v",
				c.name, res.Triangles, want)
		}
		if want := bruteGabriel(g); !reflect.DeepEqual(res.Gabriel, want) {
			t.Fatalf("%s: Gabriel edges differ from brute force:\ngot  %v\nwant %v", c.name, res.Gabriel, want)
		}
	}
}

// TestRunKMatchesCentralizedK: the distributed k-hop gossip protocol
// produces exactly the centralized LDel^k for k = 1 and 2.
func TestRunKMatchesCentralizedK(t *testing.T) {
	for _, k := range []int{1, 2} {
		for seed := int64(0); seed < 4; seed++ {
			inst, err := udg.ConnectedInstance(seed, 40, 200, 70, 0)
			if err != nil {
				t.Fatal(err)
			}
			dist, _, err := RunK(inst.UDG, nil, inst.Radius, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			cent, err := CentralizedK(inst.UDG, nil, inst.Radius, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dist.Triangles, cent.Triangles) {
				t.Fatalf("k=%d seed %d: triangles differ:\ndist %v\ncent %v",
					k, seed, dist.Triangles, cent.Triangles)
			}
			if !reflect.DeepEqual(dist.PLDel.Edges(), cent.PLDel.Edges()) {
				t.Fatalf("k=%d seed %d: PLDel differs", k, seed)
			}
			if !reflect.DeepEqual(dist.LDel.Edges(), cent.LDel.Edges()) {
				t.Fatalf("k=%d seed %d: LDel differs", k, seed)
			}
		}
	}
}

func TestRunKInvalidK(t *testing.T) {
	inst, err := udg.ConnectedInstance(1, 10, 200, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunK(inst.UDG, nil, inst.Radius, 0, 0); err == nil {
		t.Fatal("k=0 accepted by RunK")
	}
}

// TestRunKGossipCost: the k=2 gossip costs more messages than k=1 (each
// node forwards its neighbors' locations once), quantifying why the paper
// prefers k=1.
func TestRunKGossipCost(t *testing.T) {
	inst, err := udg.ConnectedInstance(3, 50, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, net1, err := RunK(inst.UDG, nil, inst.Radius, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, net2, err := RunK(inst.UDG, nil, inst.Radius, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	loc1 := net1.SentByType()["Location"]
	loc2 := net2.SentByType()["Location"]
	if loc2 <= loc1 {
		t.Fatalf("k=2 Location messages (%d) should exceed k=1 (%d)", loc2, loc1)
	}
	if loc1 != inst.UDG.N() {
		t.Fatalf("k=1 should send exactly one Location per node, got %d", loc1)
	}
}
