package geom

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func randPts(seed int64, n int, region float64) []Point {
	r := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(r.Float64()*region, r.Float64()*region)
	}
	return pts
}

// brutePairs enumerates all pairs within r the slow way.
func brutePairs(pts []Point, r float64) [][2]int {
	var out [][2]int
	r2 := r * r
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist2(pts[j]) <= r2 {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

func TestGridPairsMatchBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 100, 300} {
		pts := randPts(int64(n)+1, n, 100)
		const r = 15.0
		var got [][2]int
		NewGrid(pts, r).ForEachPairWithin(r, func(i, j int) {
			if j <= i {
				t.Fatalf("pair (%d, %d) not ordered", i, j)
			}
			got = append(got, [2]int{i, j})
		})
		want := brutePairs(pts, r)
		sortPairs := func(ps [][2]int) {
			sort.Slice(ps, func(a, b int) bool {
				if ps[a][0] != ps[b][0] {
					return ps[a][0] < ps[b][0]
				}
				return ps[a][1] < ps[b][1]
			})
		}
		sortPairs(got)
		sortPairs(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: grid pairs diverge from brute force (%d vs %d pairs)", n, len(got), len(want))
		}
	}
}

func TestGridPairsDeterministicOrder(t *testing.T) {
	pts := randPts(7, 200, 100)
	const r = 12.0
	collect := func() [][2]int {
		var out [][2]int
		NewGrid(pts, r).ForEachPairWithin(r, func(i, j int) { out = append(out, [2]int{i, j}) })
		return out
	}
	a, b := collect(), collect()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("pair iteration order is not deterministic")
	}
}

// bruteRange lists the indices of pts within the closed disk, ascending.
func bruteRange(pts []Point, c Point, r float64) []int {
	var out []int
	for i, p := range pts {
		if p.Dist2(c) <= r*r {
			out = append(out, i)
		}
	}
	return out
}

func TestGridRangeCircle(t *testing.T) {
	pts := randPts(11, 250, 100)
	g := NewGrid(pts, 10)
	queries := []struct {
		c Point
		r float64
	}{
		{Pt(50, 50), 7},
		{Pt(0, 0), 25},       // multi-cell span
		{Pt(-20, 130), 40},   // center outside the indexed region
		{Pt(50, 50), 0},      // zero radius: only exact hits
		{Pt(200, 200), 5},    // empty result
		{pts[17], 0},         // exact hit on an indexed point
		{Pt(33.3, 66.6), 90}, // covers most of the region
	}
	for qi, q := range queries {
		got := g.RangeCircle(q.c, q.r)
		if want := bruteRange(pts, q.c, q.r); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: RangeCircle = %v, want %v", qi, got, want)
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("query %d: result not in ascending index order", qi)
		}
	}
}

// TestGridRangeCircleRandomQueries checks RangeCircle against brute force
// on random point sets, cell sizes, and query disks larger or smaller than
// a cell, with centres inside and outside the indexed region.
func TestGridRangeCircleRandomQueries(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		pts := randPts(int64(trial), 1+r.Intn(300), 100)
		g := NewGrid(pts, 1+r.Float64()*30)
		for q := 0; q < 10; q++ {
			c := Pt(r.Float64()*120-10, r.Float64()*120-10)
			radius := r.Float64() * 50
			if got, want := g.RangeCircle(c, radius), bruteRange(pts, c, radius); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d query %d: RangeCircle = %v, want %v", trial, q, got, want)
			}
		}
	}
}

func TestGridRadiusExceedsCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for radius > cell")
		}
	}()
	NewGrid(randPts(1, 10, 100), 5).ForEachPairWithin(6, func(i, j int) {})
}

func TestGridDegenerate(t *testing.T) {
	// Empty set and non-positive cell: queries scan nothing, no panics.
	for _, g := range []*Grid{NewGrid(nil, 10), NewGrid(randPts(1, 5, 10), 0)} {
		g.ForEachPairWithin(1, func(i, j int) { t.Fatal("unexpected pair") })
		if got := g.RangeCircle(Pt(0, 0), 100); got != nil {
			t.Fatalf("degenerate RangeCircle = %v", got)
		}
	}
}
