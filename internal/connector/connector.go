// Package connector implements Algorithm 1 of the paper ("Finding
// Connectors"): the distributed election of gateway nodes that join every
// pair of dominators at two or three hops, turning the maximal independent
// set produced by package cluster into a connected dominating set (CDS).
//
// Message flow (stages align with the simulator's synchronous rounds; the
// IamDominatee broadcasts of steps 1–2 already happened during clustering,
// whose result carries each node's dominator and two-hop-dominator lists):
//
//	round 0 (Init): every dominatee w proposes itself with
//	  TryConnector(u, w, v, 0) for each pair of its dominators u, v, and
//	  TryConnector(u, w, v, 1) for its dominator u and each two-hop
//	  dominator v (the first node of a prospective 3-hop path u-w-x-v).
//	round 1 (Tick): w elects itself — IamConnector — for a proposal key
//	  when it has the smallest ID among itself and the neighbors it heard
//	  proposing the same key.
//	round 2 (Tick): a dominatee x hearing IamConnector(u, w, v, 1) from a
//	  neighbor w, with v among x's dominators and u among x's two-hop
//	  dominators, proposes TryConnector(u, x, v, 2) as the second node.
//	round 3 (Tick): smallest-ID election again; the elected x broadcasts
//	  IamConnector(u, x, v, 2) and links w-x and x-v.
//
// As the paper notes, a pair may elect up to two connectors per stage
// (candidates that cannot hear each other), which adds redundant paths and
// robustness; the counts stay constant-bounded by Lemma 2.
//
// The package also assembles the four backbone graphs of the paper: CDS,
// CDS' (plus dominatee→dominator edges), ICDS (the unit-disk graph induced
// on the backbone nodes), and ICDS'.
package connector

import (
	"fmt"

	"geospanner/internal/cluster"
	"geospanner/internal/graph"
	"geospanner/internal/sim"
)

// Stage is the stage label of connector-election runs in traces
// (sim.WithStage).
const Stage = "connector"

// MsgTryConnector proposes the sender as a connector for the dominator
// pair (U, V). Stage 0 is a 2-hop pair (U < V, unordered); stages 1 and 2
// are the first and second node of a 3-hop path from U to V (ordered).
type MsgTryConnector struct {
	U, V  int
	Stage int
}

// Type implements sim.Message.
func (MsgTryConnector) Type() string { return "TryConnector" }

// MsgIamConnector announces the sender won the election for the key.
type MsgIamConnector struct {
	U, V  int
	Stage int
}

// Type implements sim.Message.
func (MsgIamConnector) Type() string { return "IamConnector" }

// Options tunes connector election. The zero value is the paper's
// Algorithm 1.
type Options struct {
	// SingleOrientation elects 3-hop connectors for each dominator pair
	// in only one direction (u < v) instead of both. Algorithm 1 as
	// written elects both directions, which adds redundant paths and
	// robustness at the cost of a larger backbone; this switch is the
	// ablation knob for that design choice (see cmd/experiments -exp
	// ablation).
	SingleOrientation bool
}

// proposalKeys calls fn for every stage-0 and stage-1 election a
// dominatee with the given sorted dominator and two-hop-dominator lists
// proposes itself for, in broadcast order: Algorithm 1 step 3 (one
// stage-0 key per pair of its dominators, U < V), then step 5 (one
// stage-1 key per own dominator U and two-hop dominator V, only U < V
// under SingleOrientation). It is the one enumeration of proposals: the
// protocol's Init, the centralized election, and Witness.Patch all call
// it.
func proposalKeys(doms, twoHop []int, opts Options, fn func(keyID)) {
	for i, u := range doms {
		for _, v := range doms[i+1:] {
			fn(keyID{U: u, V: v, Stage: 0})
		}
	}
	for _, u := range doms {
		for _, v := range twoHop {
			if opts.SingleOrientation && u > v {
				continue
			}
			fn(keyID{U: u, V: v, Stage: 1})
		}
	}
}

// node is the per-node protocol state machine for Algorithm 1.
type node struct {
	id      int
	opts    Options
	status  cluster.Status
	doms    []int // adjacent dominators, sorted
	twoHops []int // two-hop dominators, sorted
	// proposed, minHeard, and triggers are keyed by election: the keys
	// this node proposed, the smallest neighbor ID heard proposing each
	// key, and the stage-1 winners that triggered a stage-2 proposal.
	proposed map[keyID]bool
	minHeard map[keyID]int
	triggers map[keyID][]int
	elected  bool
	edges    []graph.Edge
	round    int
}

var _ sim.Protocol = (*node)(nil)

func (n *node) Init(ctx *sim.Context) {
	n.proposed = make(map[keyID]bool)
	n.minHeard = make(map[keyID]int)
	n.triggers = make(map[keyID][]int)
	if n.status != cluster.Dominatee {
		return
	}
	// Steps 3 and 5: 2-hop pairs between own dominators, then first nodes
	// of 3-hop paths from an own dominator to a two-hop dominator.
	proposalKeys(n.doms, n.twoHops, n.opts, func(k keyID) { n.propose(ctx, k) })
}

func (n *node) propose(ctx *sim.Context, k keyID) {
	if n.proposed[k] {
		return
	}
	n.proposed[k] = true
	ctx.Broadcast(MsgTryConnector{U: k.U, V: k.V, Stage: k.Stage})
}

func (n *node) Handle(ctx *sim.Context, from int, m sim.Message) {
	switch msg := m.(type) {
	case MsgTryConnector:
		k := keyID{U: msg.U, V: msg.V, Stage: msg.Stage}
		if cur, ok := n.minHeard[k]; !ok || from < cur {
			n.minHeard[k] = from
		}
	case MsgIamConnector:
		if msg.Stage != 1 || n.status != cluster.Dominatee {
			return
		}
		// Step 7: the sender is the first node of a 3-hop path from
		// msg.U; respond as a candidate second node when msg.V is an own
		// dominator and msg.U is a two-hop dominator.
		if !contains(n.doms, msg.V) || !contains(n.twoHops, msg.U) {
			return
		}
		k := keyID{U: msg.U, V: msg.V, Stage: 2}
		n.triggers[k] = append(n.triggers[k], from)
	}
}

// contains reports whether x is in list.
func contains(list []int, x int) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}

func (n *node) Tick(ctx *sim.Context, round int) {
	n.round = round
	switch round {
	case 1:
		// Steps 4 and 6: elect the locally smallest proposer.
		n.electStage(ctx, 0)
		n.electStage(ctx, 1)
	case 2:
		// Step 7: propose as second node for every triggered key, in
		// sorted key order so the broadcast order is deterministic.
		keys := make([]keyID, 0, len(n.triggers))
		for k := range n.triggers {
			keys = append(keys, k)
		}
		sortKeyIDs(keys)
		for _, k := range keys {
			n.propose(ctx, k)
		}
	case 3:
		// Step 8: elect second nodes.
		n.electStage(ctx, 2)
	}
}

// electStage elects the node for every key it proposed at the given stage
// where its own ID is smaller than every neighbor it heard proposing the
// same key.
func (n *node) electStage(ctx *sim.Context, stage int) {
	keys := make([]keyID, 0, len(n.proposed))
	for k := range n.proposed {
		if k.Stage == stage {
			keys = append(keys, k)
		}
	}
	sortKeyIDs(keys)
	for _, k := range keys {
		if minID, heard := n.minHeard[k]; heard && minID < n.id {
			continue
		}
		if !n.elected {
			ctx.EmitState("connector")
		}
		n.elected = true
		ctx.Broadcast(MsgIamConnector{U: k.U, V: k.V, Stage: k.Stage})
		switch k.Stage {
		case 0:
			n.edges = append(n.edges, graph.MakeEdge(k.U, n.id), graph.MakeEdge(n.id, k.V))
		case 1:
			n.edges = append(n.edges, graph.MakeEdge(k.U, n.id))
		case 2:
			n.edges = append(n.edges, graph.MakeEdge(n.id, k.V))
			for _, w := range n.triggers[k] {
				n.edges = append(n.edges, graph.MakeEdge(w, n.id))
			}
		}
	}
}

func (n *node) Done() bool { return n.round >= 3 }

// Result is the outcome of connector election: the backbone node set and
// the four backbone graphs of the paper.
type Result struct {
	Cluster *cluster.Result
	// Connectors lists elected connector nodes in increasing ID order.
	Connectors []int
	// Backbone lists dominators and connectors in increasing ID order.
	Backbone []int
	// InBackbone[v] reports membership of v in the backbone.
	InBackbone []bool
	// CDS is the backbone graph: dominators, connectors, and the elected
	// connector path edges.
	CDS *graph.Graph
	// CDSPrime is CDS plus every dominatee→dominator edge.
	CDSPrime *graph.Graph
	// ICDS is the unit disk graph induced on the backbone nodes.
	ICDS *graph.Graph
	// ICDSPrime is ICDS plus every dominatee→dominator edge.
	ICDSPrime *graph.Graph
}

// Run executes the distributed connector election on the unit disk graph g
// given a clustering, and returns the backbone structures plus the network
// for message accounting. Simulator options (fault models, the Reliable
// shim) pass through to the network.
func Run(g *graph.Graph, cl *cluster.Result, maxRounds int, simOpts ...sim.Option) (*Result, *sim.Network, error) {
	return RunOpts(g, cl, maxRounds, Options{}, simOpts...)
}

// RunOpts is Run with explicit election options.
func RunOpts(g *graph.Graph, cl *cluster.Result, maxRounds int, opts Options, simOpts ...sim.Option) (*Result, *sim.Network, error) {
	simOpts = append([]sim.Option{sim.WithStage(Stage)}, simOpts...)
	net := sim.NewNetwork(g, func(id int) sim.Protocol {
		return &node{
			id:      id,
			opts:    opts,
			status:  cl.Status[id],
			doms:    cl.DominatorsOf[id],
			twoHops: cl.TwoHopDominators[id],
		}
	}, simOpts...)
	if _, err := net.Run(maxRounds); err != nil {
		// Keep the network reachable on failure for degraded-mode
		// accounting (message counts, per-node shim give-up ledger).
		return nil, net, fmt.Errorf("connector election: %w", err)
	}

	isConnector := make([]bool, g.N())
	var edges []graph.Edge
	for id := 0; id < g.N(); id++ {
		p, ok := net.Protocol(id).(*node)
		if !ok {
			return nil, nil, fmt.Errorf("connector election: unexpected protocol type at node %d", id)
		}
		if p.elected {
			isConnector[id] = true
			edges = append(edges, p.edges...)
		}
	}
	return assemble(g, cl, isConnector, edges), net, nil
}

// assemble builds the Result graphs from the elected connectors and path
// edges.
func assemble(g *graph.Graph, cl *cluster.Result, isConnector []bool, edges []graph.Edge) *Result {
	res := &Result{}
	res.setMembers(cl, isConnector)
	res.CDS = graph.New(g.Points())
	for _, e := range edges {
		res.CDS.AddEdge(e.U, e.V)
	}
	keep := make(map[int]bool, len(res.Backbone))
	for _, v := range res.Backbone {
		keep[v] = true
	}
	res.ICDS = g.Subgraph(keep)
	res.setPrimes()
	return res
}

// setMembers sets Cluster and the membership views: the connectors
// isConnector flags, and the backbone they form with cl's dominators.
func (r *Result) setMembers(cl *cluster.Result, isConnector []bool) {
	r.Cluster = cl
	r.InBackbone = make([]bool, len(cl.Status))
	r.Connectors, r.Backbone = nil, nil
	for v, st := range cl.Status {
		if isConnector[v] {
			r.Connectors = append(r.Connectors, v)
		}
		if isConnector[v] || st == cluster.Dominator {
			r.InBackbone[v] = true
			r.Backbone = append(r.Backbone, v)
		}
	}
}

// setPrimes derives CDS' and ICDS' from CDS and ICDS: each plus every
// dominatee→dominator edge of the clustering.
func (r *Result) setPrimes() {
	r.CDSPrime = r.CDS.Clone()
	r.ICDSPrime = r.ICDS.Clone()
	for v, doms := range r.Cluster.DominatorsOf {
		for _, u := range doms {
			r.CDSPrime.AddEdge(v, u)
			r.ICDSPrime.AddEdge(v, u)
		}
	}
}

// Centralized computes the same Result as Run without message passing:
// every election is decided by recomputeRecord, the rule the incremental
// patch path uses too. Tests assert Run and Centralized agree on every
// instance.
func Centralized(g *graph.Graph, cl *cluster.Result) *Result {
	return CentralizedOpts(g, cl, Options{})
}

// CentralizedOpts is Centralized with explicit election options.
func CentralizedOpts(g *graph.Graph, cl *cluster.Result, opts Options) *Result {
	isConnector := make([]bool, g.N())
	var edges []graph.Edge
	electAll(g, cl, opts, func(_ keyID, rec *keyRecord) {
		for _, w := range rec.Winners {
			isConnector[w] = true
		}
		edges = append(edges, rec.Edges...)
	})
	return assemble(g, cl, isConnector, edges)
}

// electAll decides every election of Algorithm 1 through recomputeRecord
// and hands each existing key's record to fn: the stage-0/1 keys some
// dominatee proposes (proposalKeys), in first-proposal order, each
// stage-1 key followed by its stage-2 sibling, which reads the stage-1
// winners.
func electAll(g *graph.Graph, cl *cluster.Result, opts Options, fn func(keyID, *keyRecord)) {
	seen := make(map[keyID]bool)
	var keys []keyID
	for w, st := range cl.Status {
		if st != cluster.Dominatee {
			continue
		}
		proposalKeys(cl.DominatorsOf[w], cl.TwoHopDominators[w], opts, func(k keyID) {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		})
	}
	for _, k := range keys {
		rec := recomputeRecord(g, cl, k, nil)
		if rec == nil {
			continue
		}
		fn(k, rec)
		if k.Stage == 1 {
			k2 := keyID{U: k.U, V: k.V, Stage: 2}
			if rec2 := recomputeRecord(g, cl, k2, rec.Winners); rec2 != nil {
				fn(k2, rec2)
			}
		}
	}
}
