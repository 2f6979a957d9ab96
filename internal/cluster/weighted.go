package cluster

import (
	"fmt"
	"math"
	"slices"

	"geospanner/internal/graph"
)

// The paper's related work (Section II) surveys clusterhead-selection
// criteria beyond lowest ID: highest degree (Gerla & Tsai) and generic
// node weight (Basagni). This file implements the generic-weight rule: a
// node is a dominator iff no neighbor of higher (weight, ID) rank is one.
// Rank ties break toward the smaller ID, so weights need not be distinct;
// with all weights equal the rule degenerates to the paper's lowest-ID
// MIS.

// rankBeats reports whether (w1, id1) outranks (w2, id2): higher weight
// wins, ties go to the smaller ID.
func rankBeats(w1 float64, id1 int, w2 float64, id2 int) bool {
	if w1 != w2 {
		return w1 > w2
	}
	return id1 < id2
}

// checkWeights rejects a weight vector that is not one number per node:
// rankBeats is a strict order only without NaN.
func checkWeights(g *graph.Graph, weights []float64) error {
	if len(weights) != g.N() {
		return fmt.Errorf("clustering: %d weights for %d nodes", len(weights), g.N())
	}
	for _, w := range weights {
		if math.IsNaN(w) {
			return fmt.Errorf("clustering: NaN weight")
		}
	}
	return nil
}

// CentralizedWeighted computes the generic-weight clustering of g. weights
// must have one entry per node; higher weight wins, ties break to the
// smaller ID, and DegreeWeights(g) gives the highest-degree criterion.
// Nodes are processed in rank order; a node becomes a dominator iff no
// higher-ranked neighbor already is. Derive adds the bookkeeping.
func CentralizedWeighted(g *graph.Graph, weights []float64) (*Result, error) {
	if err := checkWeights(g, weights); err != nil {
		return nil, err
	}
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Sort by rank: higher weight first, then smaller ID.
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case a == b:
			return 0
		case rankBeats(weights[a], a, weights[b], b):
			return -1
		}
		return 1
	})
	isDom := make([]bool, n)
	for _, v := range order {
		isDom[v] = true
		for _, u := range g.Neighbors(v) {
			if u != v && isDom[u] {
				isDom[v] = false
				break
			}
		}
	}
	return Derive(g, isDom), nil
}

// DegreeWeights returns each node's UDG degree as its election weight —
// the "highest connectivity becomes clusterhead" criterion of Gerla &
// Tsai, which tends to elect fewer, better-covering dominators.
func DegreeWeights(g *graph.Graph) []float64 {
	out := make([]float64, g.N())
	for v := range out {
		out[v] = float64(g.Degree(v))
	}
	return out
}
