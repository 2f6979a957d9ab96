// Package cluster implements the distributed clustering (dominator
// election) phase of the paper: the lowest-ID maximal-independent-set
// protocol attributed to Baker & Ephremides and Alzoubi et al.
//
// Protocol (Section III-A.1 of the paper):
//
//   - All nodes start white. A white node that has the smallest ID among
//     its white neighbors claims dominator status and broadcasts
//     IamDominator.
//   - A white node receiving IamDominator becomes a dominatee of the sender
//     and broadcasts IamDominatee(self, dominator) — once per dominator it
//     is adjacent to, which Lemma 1 bounds by five.
//
// The resulting dominator set is the lexicographically-first maximal
// independent set of the unit disk graph, which is also a dominating set.
// While listening to IamDominatee messages, every node additionally records
// its 2-hop-away dominators; the connector-election phase (Algorithm 1 of
// the paper, package connector) consumes those lists.
//
// A centralized reference implementation (Centralized) computes the same
// MIS directly; tests assert the two agree on every instance.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"geospanner/internal/graph"
	"geospanner/internal/sim"
)

// Stage is the stage label of clustering runs in traces (sim.WithStage).
const Stage = "cluster"

// Status is a node's clustering state.
type Status int

// Clustering states. White nodes are undecided; the protocol ends with
// every node either Dominator or Dominatee.
const (
	White Status = iota
	Dominator
	Dominatee
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Dominator:
		return "dominator"
	case Dominatee:
		return "dominatee"
	default:
		return "white"
	}
}

// MsgIamDominator announces that the sender has claimed dominator status.
type MsgIamDominator struct{}

// Type implements sim.Message.
func (MsgIamDominator) Type() string { return "IamDominator" }

// MsgIamDominatee announces that the sender is a dominatee of Dominator.
type MsgIamDominatee struct {
	Dominator int
}

// Type implements sim.Message.
func (MsgIamDominatee) Type() string { return "IamDominatee" }

// Result is the outcome of the clustering phase.
type Result struct {
	// Status holds each node's final state (never White on success).
	Status []Status
	// Dominators lists the elected dominators in increasing ID order.
	Dominators []int
	// DominatorsOf[v] lists, sorted, the dominators adjacent to v (for a
	// dominator node it is empty — the node covers itself).
	DominatorsOf [][]int
	// TwoHopDominators[v] lists, sorted, the dominators at exactly two
	// hops from v, as learned from overheard IamDominatee messages.
	TwoHopDominators [][]int
}

// IsDominator reports whether node v is a dominator.
func (r *Result) IsDominator(v int) bool { return r.Status[v] == Dominator }

// node is the per-node protocol state machine.
type node struct {
	status     Status
	white      map[int]bool // white 1-hop neighbors
	dominators map[int]bool // adjacent dominators (dominatee bookkeeping)
	twoHop     map[int]bool // dominators heard at two hops
	neighbors  map[int]bool
}

var _ sim.Protocol = (*node)(nil)

// Init implements sim.Protocol.
func (n *node) Init(ctx *sim.Context) {
	n.white = make(map[int]bool)
	n.neighbors = make(map[int]bool)
	n.dominators = make(map[int]bool)
	n.twoHop = make(map[int]bool)
	for _, v := range ctx.Neighbors() {
		n.white[v] = true
		n.neighbors[v] = true
	}
	n.tryClaim(ctx)
}

// tryClaim claims dominator status when the node is white and has the
// smallest ID among its white neighbors.
func (n *node) tryClaim(ctx *sim.Context) {
	if n.status != White {
		return
	}
	for v := range n.white {
		if v < ctx.ID() {
			return
		}
	}
	n.status = Dominator
	ctx.EmitState(Dominator.String())
	ctx.Broadcast(MsgIamDominator{})
}

// Handle implements sim.Protocol.
func (n *node) Handle(ctx *sim.Context, from int, m sim.Message) {
	switch msg := m.(type) {
	case MsgIamDominator:
		delete(n.white, from)
		if n.status == White {
			n.status = Dominatee
			ctx.EmitState(Dominatee.String())
		}
		if n.status == Dominatee && !n.dominators[from] {
			n.dominators[from] = true
			ctx.Broadcast(MsgIamDominatee{Dominator: from})
		}
		n.tryClaim(ctx)
	case MsgIamDominatee:
		delete(n.white, from)
		// Record a two-hop dominator unless it is adjacent (or self).
		if msg.Dominator != ctx.ID() && !n.neighbors[msg.Dominator] {
			n.twoHop[msg.Dominator] = true
		}
		n.tryClaim(ctx)
	}
}

// Tick implements sim.Protocol. The election is purely event-driven: a
// node acts only on what it hears, so its outcome does not depend on
// message timing (TestRunAsyncMatchesSync delays every message).
func (n *node) Tick(ctx *sim.Context, round int) {}

// Done implements sim.Protocol.
func (n *node) Done() bool { return n.status != White }

// NewProtocol returns a fresh clustering protocol instance for callers
// composing their own sim.Network (failure-injection tests). Results are
// extracted by running the network through Run in normal use.
func NewProtocol() sim.Protocol { return &node{} }

// Run executes the distributed clustering protocol on the unit disk graph g
// and returns the clustering plus the network (for message accounting).
// maxRounds of 0 uses the simulator default. Simulator options (fault
// models, the Reliable shim) pass through to the network.
func Run(g *graph.Graph, maxRounds int, opts ...sim.Option) (*Result, *sim.Network, error) {
	opts = append([]sim.Option{sim.WithStage(Stage)}, opts...)
	net := sim.NewNetwork(g, func(id int) sim.Protocol { return &node{} }, opts...)
	if _, err := net.Run(maxRounds); err != nil {
		// The network is returned alongside the error so degraded-mode
		// callers can still account the messages a failed stage sent and
		// read its per-node shim counters.
		return nil, net, fmt.Errorf("clustering: %w", err)
	}
	res := newResult(g.N())
	for id := 0; id < g.N(); id++ {
		p, ok := net.Protocol(id).(*node)
		if !ok {
			return nil, nil, fmt.Errorf("clustering: unexpected protocol type at node %d", id)
		}
		res.fill(id, p)
	}
	return res, net, nil
}

// newResult returns an empty Result for n nodes.
func newResult(n int) *Result {
	return &Result{
		Status:           make([]Status, n),
		DominatorsOf:     make([][]int, n),
		TwoHopDominators: make([][]int, n),
	}
}

// fill records node id's final protocol state into the result.
func (r *Result) fill(id int, n *node) {
	r.Status[id] = n.status
	if n.status == Dominator {
		r.Dominators = append(r.Dominators, id)
	}
	r.DominatorsOf[id] = sortedKeys(n.dominators)
	r.TwoHopDominators[id] = sortedKeys(n.twoHop)
}

// Centralized computes the same clustering as Run without message passing:
// the lexicographically-first MIS (a node is a dominator if and only if no
// smaller-ID neighbor is a dominator), with the bookkeeping Derive adds.
func Centralized(g *graph.Graph) *Result {
	isDom := make([]bool, g.N())
	for v := range isDom {
		isDom[v] = true
		for _, u := range g.Neighbors(v) {
			if u < v && isDom[u] {
				isDom[v] = false
				break
			}
		}
	}
	return Derive(g, isDom)
}

// Derive completes a clustering of g from its dominator set: nodes with
// isDom set are dominators, every other node a dominatee. DominatorsOf[v]
// lists the dominators adjacent to a dominatee v, and
// TwoHopDominators[v] the dominators of v's neighbors that are neither v
// nor adjacent to it — exactly what v learns from overheard IamDominatee
// messages. It is the one derivation of the dominator bookkeeping:
// Centralized, CentralizedWeighted, and incremental maintenance (over the
// alive graph, dead nodes isolated) all call it, the last through
// Rederive.
func Derive(g *graph.Graph, isDom []bool) *Result {
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	res := newResult(g.N())
	res.Rederive(g, func(v int) bool { return isDom[v] }, all)
	return res
}

// Rederive brings r current for the dominator set isDom over g (dead
// nodes isolated, as in incremental maintenance's live graph) by
// re-running Derive's per-node rule for exactly the nodes of scope
// (sorted, distinct) and keeping every other entry. It equals a fresh
// Derive whenever scope holds every node within two hops — before or
// after the change — of a node whose dominator flag, liveness, or
// adjacency changed since r was last current: a node's status reads its
// own flag, its dominator list its neighbors' flags, and its two-hop
// list its neighbors' dominator lists. Replaced entries are fresh
// slices; r itself and its outer slices are updated in place.
func (r *Result) Rederive(g *graph.Graph, isDom func(v int) bool, scope []int) {
	for _, v := range scope {
		was, dom := r.Status[v] == Dominator, isDom(v)
		r.Status[v] = Dominatee
		if dom {
			r.Status[v] = Dominator
		}
		if was == dom {
			continue
		}
		if i, _ := slices.BinarySearch(r.Dominators, v); dom {
			r.Dominators = slices.Insert(r.Dominators, i, v)
		} else {
			r.Dominators = slices.Delete(r.Dominators, i, i+1)
		}
	}
	if len(r.Dominators) == 0 {
		r.Dominators = nil
	}
	for _, v := range scope {
		var doms []int
		if r.Status[v] == Dominatee {
			for _, u := range g.Neighbors(v) {
				if r.Status[u] == Dominator {
					doms = append(doms, u)
				}
			}
		}
		r.DominatorsOf[v] = doms
	}
	seen := make([]int, len(r.Status)) // seen[u] == v+1: dominator u already considered for v
	for _, v := range scope {
		var two []int
		for _, w := range g.Neighbors(v) {
			for _, u := range r.DominatorsOf[w] {
				if u == v || seen[u] == v+1 {
					continue
				}
				seen[u] = v + 1
				if !g.HasEdge(u, v) {
					two = append(two, u)
				}
			}
		}
		sort.Ints(two)
		r.TwoHopDominators[v] = two
	}
}

func sortedKeys(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
