package graph

import (
	"math/rand"
	"testing"

	"geospanner/internal/geom"
)

// TestGraphAgainstMatrixModel drives a Graph and a naive adjacency-matrix
// model with the same random operation sequence and checks full agreement.
func TestGraphAgainstMatrixModel(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(20)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*10, r.Float64()*10)
		}
		g := New(pts)
		model := make([][]bool, n)
		for i := range model {
			model[i] = make([]bool, n)
		}
		modelEdges := 0

		for op := 0; op < 200; op++ {
			i, j := r.Intn(n), r.Intn(n)
			if r.Intn(2) == 0 {
				g.AddEdge(i, j)
				if i != j && !model[i][j] {
					model[i][j], model[j][i] = true, true
					modelEdges++
				}
			} else {
				g.RemoveEdge(i, j)
				if i != j && model[i][j] {
					model[i][j], model[j][i] = false, false
					modelEdges--
				}
			}
		}

		if g.NumEdges() != modelEdges {
			t.Fatalf("trial %d: NumEdges %d != model %d", trial, g.NumEdges(), modelEdges)
		}
		for i := 0; i < n; i++ {
			deg := 0
			for j := 0; j < n; j++ {
				if g.HasEdge(i, j) != model[i][j] {
					t.Fatalf("trial %d: HasEdge(%d,%d) mismatch", trial, i, j)
				}
				if model[i][j] {
					deg++
				}
			}
			if g.Degree(i) != deg {
				t.Fatalf("trial %d: Degree(%d) = %d, model %d", trial, i, g.Degree(i), deg)
			}
		}
		// Edges() round-trips.
		rebuilt := New(pts)
		for _, e := range g.Edges() {
			rebuilt.AddEdge(e.U, e.V)
		}
		if rebuilt.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: Edges() lost edges", trial)
		}
	}
}

func TestSubgraphIsSubset(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := randomGraph(r, 20, 0.3)
	keep := make(map[int]bool)
	for v := 0; v < 20; v += 2 {
		keep[v] = true
	}
	s := g.Subgraph(keep)
	for _, e := range s.Edges() {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("subgraph invented edge %v", e)
		}
		if !keep[e.U] || !keep[e.V] {
			t.Fatalf("subgraph kept excluded endpoint %v", e)
		}
	}
	// Every kept-kept edge survives.
	for _, e := range g.Edges() {
		if keep[e.U] && keep[e.V] && !s.HasEdge(e.U, e.V) {
			t.Fatalf("subgraph dropped edge %v", e)
		}
	}
}

func TestBFSDijkstraConsistency(t *testing.T) {
	// On unit-length edges, BFS hops and Dijkstra lengths agree.
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(15)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(i), 0) // consecutive at distance 1
		}
		g := New(pts)
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1)
		}
		hops, _ := g.BFS(0)
		lens, _ := g.Dijkstra(0)
		for v := range hops {
			if float64(hops[v]) != lens[v] {
				t.Fatalf("hops %d != length %v at node %d", hops[v], lens[v], v)
			}
		}
	}
}
