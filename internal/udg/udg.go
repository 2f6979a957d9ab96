// Package udg constructs unit disk graphs (UDGs) — the wireless network
// model of the paper, where two nodes are linked if and only if their
// Euclidean distance is at most the transmission radius — and generates the
// random instances the evaluation uses (nodes uniform in a square region,
// resampled until the UDG is connected).
package udg

import (
	"errors"
	"fmt"
	"math/rand"

	"geospanner/internal/geom"
	"geospanner/internal/graph"
)

// ErrDisconnected is returned by ConnectedInstance when no connected
// instance was found within the attempt budget.
var ErrDisconnected = errors.New("udg: no connected instance found")

// Build returns the unit disk graph over pts with the given transmission
// radius, using the shared uniform-grid spatial index (geom.Grid,
// expected O(n + m) time): cell side = radius, so every within-radius
// pair lives in adjacent cells.
func Build(pts []geom.Point, radius float64) *graph.Graph {
	g := graph.New(pts)
	if len(pts) == 0 || radius <= 0 {
		return g
	}
	geom.NewGrid(pts, radius).ForEachPairWithin(radius, func(i, j int) {
		g.AddEdge(i, j)
	})
	return g
}

// BuildBruteForce returns the same graph as Build via the O(n²) pairwise
// scan. It exists to cross-validate the spatial index in tests.
func BuildBruteForce(pts []geom.Point, radius float64) *graph.Graph {
	g := graph.New(pts)
	r2 := radius * radius
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist2(pts[j]) <= r2 {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// RandomPoints places n points uniformly at random in the axis-aligned
// square [0, region] × [0, region], guaranteeing pairwise-distinct
// coordinates.
func RandomPoints(r *rand.Rand, n int, region float64) []geom.Point {
	pts := make([]geom.Point, 0, n)
	seen := make(map[geom.Point]struct{}, n)
	for len(pts) < n {
		p := geom.Pt(r.Float64()*region, r.Float64()*region)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		pts = append(pts, p)
	}
	return pts
}

// Instance is a generated network instance.
type Instance struct {
	Points []geom.Point
	Radius float64
	Region float64
	// UDG is the unit disk graph over Points with Radius.
	UDG *graph.Graph
}

// ConnectedInstance generates random instances (seeded, deterministic)
// until the unit disk graph is connected, as the paper's simulations do,
// and returns the first connected one. maxTries bounds the resampling; 0
// means a default of 1000.
func ConnectedInstance(seed int64, n int, region, radius float64, maxTries int) (*Instance, error) {
	if maxTries <= 0 {
		maxTries = 1000
	}
	r := rand.New(rand.NewSource(seed))
	for try := 0; try < maxTries; try++ {
		pts := RandomPoints(r, n, region)
		g := Build(pts, radius)
		if g.Connected() {
			return &Instance{Points: pts, Radius: radius, Region: region, UDG: g}, nil
		}
	}
	return nil, fmt.Errorf("%w after %d tries (n=%d region=%g radius=%g)",
		ErrDisconnected, maxTries, n, region, radius)
}
