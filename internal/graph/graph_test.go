package graph

import (
	"math/rand"
	"testing"

	"geospanner/internal/geom"
)

func linePoints(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i), 0)
	}
	return pts
}

func randomGraph(r *rand.Rand, n int, p float64) *Graph {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
	}
	g := New(pts)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(linePoints(4))
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(2, 2) // self loop ignored
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing")
	}
	g.RemoveEdge(1, 0)
	if g.NumEdges() != 0 || g.HasEdge(0, 1) {
		t.Fatal("edge not removed")
	}
	g.RemoveEdge(0, 1) // removing absent edge is a no-op
	if g.NumEdges() != 0 {
		t.Fatal("NumEdges went negative")
	}
}

// TestOutOfRangePanics enforces the package bounds policy: every method
// taking a node index panics on out-of-range input, HasEdge included
// (it used to silently report false, unlike its siblings).
func TestOutOfRangePanics(t *testing.T) {
	g := New(linePoints(3))
	g.AddEdge(0, 1)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic on out-of-range index", name)
			}
		}()
		fn()
	}
	mustPanic("HasEdge(-1,0)", func() { g.HasEdge(-1, 0) })
	mustPanic("HasEdge(0,7)", func() { g.HasEdge(0, 7) })
	mustPanic("Neighbors(3)", func() { g.Neighbors(3) })
	mustPanic("Neighbors(-1)", func() { g.Neighbors(-1) })
	mustPanic("Degree(5)", func() { g.Degree(5) })
	mustPanic("AddEdge(0,3)", func() { g.AddEdge(0, 3) })
	mustPanic("AddEdge(-2,1)", func() { g.AddEdge(-2, 1) })
	mustPanic("RemoveEdge(0,9)", func() { g.RemoveEdge(0, 9) })
	mustPanic("EachNeighbor(4)", func() { g.EachNeighbor(4, func(int) bool { return true }) })
	// In-range queries still behave.
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("in-range HasEdge broken")
	}
}

// TestNeighborsZeroAlloc pins the tentpole guarantee: Neighbors returns
// the internal adjacency slice without allocating or sorting.
func TestNeighborsZeroAlloc(t *testing.T) {
	g := New(linePoints(64))
	for i := 1; i < 64; i++ {
		g.AddEdge(0, i)
	}
	var sink []int
	allocs := testing.AllocsPerRun(100, func() {
		sink = g.Neighbors(0)
	})
	if allocs != 0 {
		t.Fatalf("Neighbors allocated %v times per call, want 0", allocs)
	}
	if len(sink) != 63 {
		t.Fatalf("Neighbors length = %d, want 63", len(sink))
	}
	// EachNeighbor with a pre-declared closure is also allocation-free.
	count := 0
	visit := func(int) bool { count++; return true }
	allocs = testing.AllocsPerRun(100, func() {
		g.EachNeighbor(0, visit)
	})
	if allocs != 0 {
		t.Fatalf("EachNeighbor allocated %v times per call, want 0", allocs)
	}
}

func TestNeighborsAppendReusesBuffer(t *testing.T) {
	g := New(linePoints(8))
	g.AddEdge(3, 1)
	g.AddEdge(3, 7)
	g.AddEdge(3, 5)
	buf := make([]int, 0, 8)
	got := g.NeighborsAppend(buf, 3)
	want := []int{1, 5, 7}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("NeighborsAppend = %v, want %v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("NeighborsAppend did not reuse the buffer capacity")
	}
	// Appending for a second node extends rather than resets.
	got = g.NeighborsAppend(got, 1)
	if len(got) != 4 || got[3] != 3 {
		t.Fatalf("second NeighborsAppend = %v", got)
	}
}

func TestEachNeighborEarlyStop(t *testing.T) {
	g := New(linePoints(6))
	for _, v := range []int{1, 2, 4, 5} {
		g.AddEdge(0, v)
	}
	var seen []int
	g.EachNeighbor(0, func(j int) bool {
		seen = append(seen, j)
		return j < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("EachNeighbor early stop visited %v, want [1 2]", seen)
	}
}

// TestNeighborsViewInvalidation documents the aliasing contract: the slice
// returned by Neighbors reflects subsequent mutations (it is a view, not a
// copy).
func TestNeighborsViewInvalidation(t *testing.T) {
	g := New(linePoints(4))
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	view := g.Neighbors(0)
	if len(view) != 2 {
		t.Fatalf("view = %v", view)
	}
	g.RemoveEdge(0, 1)
	fresh := g.Neighbors(0)
	if len(fresh) != 1 || fresh[0] != 2 {
		t.Fatalf("after removal Neighbors = %v, want [2]", fresh)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(linePoints(5))
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	nbrs := g.Neighbors(2)
	want := []int{0, 3, 4}
	if len(nbrs) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", nbrs, want)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", nbrs, want)
		}
	}
	if g.Degree(2) != 3 {
		t.Fatalf("Degree = %d, want 3", g.Degree(2))
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := New(linePoints(4))
	g.AddEdge(3, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	edges := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {1, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", edges, want)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(linePoints(3))
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating clone affected original")
	}
	if !c.HasEdge(0, 1) {
		t.Fatal("clone lost an edge")
	}
}

func TestSubgraph(t *testing.T) {
	g := New(linePoints(5))
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	s := g.Subgraph(map[int]bool{0: true, 1: true, 3: true, 4: true})
	if s.HasEdge(1, 2) {
		t.Fatal("subgraph kept edge with excluded endpoint")
	}
	if !s.HasEdge(0, 1) || !s.HasEdge(3, 4) {
		t.Fatal("subgraph dropped kept edges")
	}
}

func TestDegreeStats(t *testing.T) {
	g := New(linePoints(4))
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	if g.AvgDegree() != 1.5 {
		t.Fatalf("AvgDegree = %v, want 1.5", g.AvgDegree())
	}
	maxDeg, avgDeg := g.DegreeOver([]int{1, 2, 3})
	if maxDeg != 1 || avgDeg != 1 {
		t.Fatalf("DegreeOver = (%d, %v), want (1, 1)", maxDeg, avgDeg)
	}
	if m, a := g.DegreeOver(nil); m != 0 || a != 0 {
		t.Fatal("DegreeOver(nil) should be zero")
	}
}

func TestTotalLength(t *testing.T) {
	g := New(linePoints(3))
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.TotalLength() != 2 {
		t.Fatalf("TotalLength = %v, want 2", g.TotalLength())
	}
	if g.EdgeLength(0, 2) != 2 {
		t.Fatalf("EdgeLength = %v, want 2", g.EdgeLength(0, 2))
	}
}

func TestEmptyGraphStats(t *testing.T) {
	g := New(nil)
	if g.N() != 0 || g.MaxDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatal("empty graph stats should be zero")
	}
	if !g.Connected() {
		t.Fatal("empty graph is connected by convention")
	}
}
