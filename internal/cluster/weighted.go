package cluster

import (
	"fmt"
	"math"
	"slices"

	"geospanner/internal/graph"
	"geospanner/internal/sim"
)

// The paper's related work (Section II) surveys clusterhead-selection
// criteria beyond lowest ID: highest degree (Gerla & Tsai) and generic
// node weight (Basagni). This file implements the generic-weight protocol:
// a white node claims dominator status when its (weight, ID) rank beats
// every white neighbor's. Rank ties break toward the smaller ID, so
// weights need not be distinct; with all weights equal the protocol
// degenerates to the paper's lowest-ID rule.

// rankBeats reports whether (w1, id1) outranks (w2, id2): higher weight
// wins, ties go to the smaller ID.
func rankBeats(w1 float64, id1 int, w2 float64, id2 int) bool {
	if w1 != w2 {
		return w1 > w2
	}
	return id1 < id2
}

// MsgWeight announces the sender's weight to its neighbors before the
// election starts.
type MsgWeight struct {
	Weight float64
}

// Type implements sim.Message.
func (MsgWeight) Type() string { return "Weight" }

// weightedNode runs the generic-weight clustering election. It reuses the
// base node bookkeeping for dominators and two-hop dominators, and the
// base node's Tick and Done.
type weightedNode struct {
	node
	weight    float64
	weights   map[int]float64 // neighbor weights as they arrive
	heardFrom map[int]bool
}

var _ sim.Protocol = (*weightedNode)(nil)

func (n *weightedNode) Init(ctx *sim.Context) {
	n.white = make(map[int]bool)
	n.neighbors = make(map[int]bool)
	n.dominators = make(map[int]bool)
	n.twoHop = make(map[int]bool)
	n.weights = make(map[int]float64)
	n.heardFrom = make(map[int]bool)
	for _, v := range ctx.Neighbors() {
		n.white[v] = true
		n.neighbors[v] = true
	}
	ctx.Broadcast(MsgWeight{Weight: n.weight})
	n.tryClaimWeighted(ctx)
}

// tryClaimWeighted claims dominator status when the node is white, has
// heard every neighbor's weight, and outranks all white neighbors.
func (n *weightedNode) tryClaimWeighted(ctx *sim.Context) {
	if n.status != White || len(n.heardFrom) < len(n.neighbors) {
		return
	}
	for v := range n.white {
		if rankBeats(n.weights[v], v, n.weight, ctx.ID()) {
			return
		}
	}
	n.status = Dominator
	ctx.Broadcast(MsgIamDominator{})
}

func (n *weightedNode) Handle(ctx *sim.Context, from int, m sim.Message) {
	switch msg := m.(type) {
	case MsgWeight:
		n.weights[from] = msg.Weight
		n.heardFrom[from] = true
		n.tryClaimWeighted(ctx)
	case MsgIamDominator:
		delete(n.white, from)
		if n.status == White {
			n.status = Dominatee
		}
		if n.status == Dominatee && !n.dominators[from] {
			n.dominators[from] = true
			ctx.Broadcast(MsgIamDominatee{Dominator: from})
		}
		n.tryClaimWeighted(ctx)
	case MsgIamDominatee:
		delete(n.white, from)
		if msg.Dominator != ctx.ID() && !n.neighbors[msg.Dominator] {
			n.twoHop[msg.Dominator] = true
		}
		n.tryClaimWeighted(ctx)
	}
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

// RunWeighted executes the generic-weight clustering election. weights
// must have one entry per node; higher weight wins, ties break to the
// smaller ID. DegreeWeights(g) gives the highest-degree criterion.
func RunWeighted(g *graph.Graph, weights []float64, maxRounds int) (*Result, *sim.Network, error) {
	if err := checkWeights(g, weights); err != nil {
		return nil, nil, err
	}
	net := sim.NewNetwork(g, func(id int) sim.Protocol {
		return &weightedNode{weight: weights[id]}
	})
	if _, err := net.Run(maxRounds); err != nil {
		return nil, nil, fmt.Errorf("weighted clustering: %w", err)
	}
	res := newResult(g.N())
	for id := 0; id < g.N(); id++ {
		p, ok := net.Protocol(id).(*weightedNode)
		if !ok {
			return nil, nil, fmt.Errorf("weighted clustering: unexpected protocol type at node %d", id)
		}
		res.fill(id, &p.node)
	}
	return res, net, nil
}

// CentralizedWeighted computes the same clustering as RunWeighted without
// message passing: process nodes in rank order; a node becomes a dominator
// iff no higher-ranked neighbor already is. Derive adds the bookkeeping.
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
