// Package ldel implements the localized Delaunay triangulation LDel⁽¹⁾ and
// its planarization PLDel (Algorithms 2 and 3 of the paper, after Li,
// Calinescu, and Wan, INFOCOM 2002). Applied to the induced backbone graph
// ICDS it yields the paper's headline structure LDel(ICDS): a planar,
// bounded-degree hop-and-length spanner.
//
// Algorithm 2 (construction of LDel⁽¹⁾):
//
//	Every node broadcasts its location, computes the Delaunay triangulation
//	of its 1-hop neighborhood, keeps its Gabriel edges, and proposes every
//	incident triangle with all sides within transmission range at whose
//	corner it spans an angle of at least π/3. The other two corners accept
//	when the triangle also appears in their local Delaunay triangulations.
//	A triangle joins LDel⁽¹⁾ when some corner proposed it and every corner
//	has it locally (proposers accept implicitly).
//
// Algorithm 3 (planarization):
//
//	Every node broadcasts its kept triangles; on hearing the triangles of
//	its neighbors, a node discards an incident triangle whose circumcircle
//	strictly contains a vertex of an intersecting known triangle, then
//	broadcasts what remains. A triangle survives only if all three corners
//	still keep it. The surviving triangles plus the Gabriel edges form the
//	planar graph PLDel.
//
// Each rule is written once (rules.go): nodeDecisions is a node's
// triangulation, Gabriel and proposal decision, removes the planarization
// test for one pair of kept triangles, and assemble turns the kept and
// surviving sets into a Result. Run drives the rules through message
// passing on internal/sim: each node decides on the positions it heard,
// and the propose/accept/reject exchange that settles the kept set, the
// gossip and the remaining-triangle exchange stay the protocol's own. The
// Witness runs the same rules without messages, over each node's k-hop
// neighborhood, and settles the kept set with keptStatus; Centralized is
// a fresh witness brought current over every node, and Patch brings it
// current over a dirty set. Tests assert Run and
// Centralized agree, and check the shared rules against oracles that do
// not call them: a global Delaunay triangulation, brute-force Gabriel
// edges, and hand-built triangle pairs planarization must remove or keep.
package ldel

import (
	"fmt"
	"slices"
	"sort"

	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/sim"
)

// Stage is the stage label of LDel construction runs in traces
// (sim.WithStage).
const Stage = "ldel"

// angleSlack absorbs floating-point rounding in the π/3 proposal threshold
// so an exactly-equilateral triangle is still proposed by all corners.
const angleSlack = 1e-12

// TriKey identifies a triangle by its sorted vertex IDs.
type TriKey [3]int

// NewTriKey returns the canonical key for the vertex triple.
func NewTriKey(a, b, c int) TriKey {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return TriKey{a, b, c}
}

// Has reports whether v is a vertex of the triangle.
func (t TriKey) Has(v int) bool { return t[0] == v || t[1] == v || t[2] == v }

// Edges returns the three undirected edges of the triangle.
func (t TriKey) Edges() [3]graph.Edge {
	return [3]graph.Edge{
		graph.MakeEdge(t[0], t[1]),
		graph.MakeEdge(t[1], t[2]),
		graph.MakeEdge(t[0], t[2]),
	}
}

// Messages of Algorithms 2 and 3. All are broadcast to 1-hop neighbors.
type (
	// MsgLocation announces a node's position (Algorithm 2, step 1). For
	// the k-hop variant the message is gossiped with a TTL: receivers
	// forward each origin's location once while TTL > 1, so positions
	// reach exactly the k-hop neighborhood.
	MsgLocation struct {
		Origin int
		Pos    geom.Point
		TTL    int
	}
	// MsgProposal proposes 1-localized Delaunay triangle T (step 4).
	MsgProposal struct {
		T TriKey
	}
	// MsgAccept accepts a proposed triangle (step 5).
	MsgAccept struct {
		T TriKey
	}
	// MsgReject rejects a proposed triangle (step 5).
	MsgReject struct {
		T TriKey
	}
	// MsgTriangles carries a node's Gabriel edges and kept triangles
	// with the referenced node positions (Algorithm 3, step 1). Gossiped
	// with a TTL like MsgLocation in the k-hop variant.
	MsgTriangles struct {
		Origin    int
		Gabriel   []graph.Edge
		Triangles []TriKey
		Pos       map[int]geom.Point
		TTL       int
	}
	// MsgRemaining carries the sender's surviving triangles after the
	// intersection pruning (Algorithm 3, step 3).
	MsgRemaining struct {
		Triangles []TriKey
	}
)

// Type implements sim.Message.
func (MsgLocation) Type() string { return "Location" }

// Type implements sim.Message.
func (MsgProposal) Type() string { return "proposal" }

// Type implements sim.Message.
func (MsgAccept) Type() string { return "accept" }

// Type implements sim.Message.
func (MsgReject) Type() string { return "reject" }

// Type implements sim.Message.
func (MsgTriangles) Type() string { return "TriangleInfo" }

// Type implements sim.Message.
func (MsgRemaining) Type() string { return "RemainingInfo" }

// Result is the outcome of the LDel construction.
type Result struct {
	// LDel is the (possibly non-planar) LDel⁽¹⁾ graph: Gabriel edges plus
	// the edges of all accepted triangles.
	LDel *graph.Graph
	// PLDel is the planarized graph produced by Algorithm 3.
	PLDel *graph.Graph
	// Triangles lists the triangles surviving planarization, sorted.
	Triangles []TriKey
	// Gabriel lists the Gabriel edges, sorted.
	Gabriel []graph.Edge
}

// node is the per-node protocol state machine.
type node struct {
	id     int
	active bool
	radius float64
	k      int // neighborhood parameter (1 = the paper's LDel¹)

	pos       map[int]geom.Point // known positions (self + heard)
	fwdLoc    map[int]bool       // origins whose location we forwarded
	fwdTri    map[int]bool       // origins whose triangle info we forwarded
	gabriel   []graph.Edge       // own Gabriel edges, sorted
	mine      []TriKey           // incident local Delaunay triangles with short edges
	proposers map[TriKey]map[int]bool
	accepters map[TriKey]map[int]bool
	responded map[TriKey]bool
	kept      map[TriKey]bool // after the accept round (LDel membership)
	pruned    map[TriKey]bool // kept minus Algorithm 3 removals
	known     map[TriKey]bool // heard via MsgTriangles
	remaining map[TriKey]map[int]bool
	final     map[TriKey]bool
	round     int
}

var _ sim.Protocol = (*node)(nil)

func (n *node) Init(ctx *sim.Context) {
	n.pos = map[int]geom.Point{n.id: ctx.Pos()}
	n.fwdLoc = make(map[int]bool)
	n.fwdTri = make(map[int]bool)
	n.proposers = make(map[TriKey]map[int]bool)
	n.accepters = make(map[TriKey]map[int]bool)
	n.responded = make(map[TriKey]bool)
	n.kept = make(map[TriKey]bool)
	n.pruned = make(map[TriKey]bool)
	n.known = make(map[TriKey]bool)
	n.remaining = make(map[TriKey]map[int]bool)
	n.final = make(map[TriKey]bool)
	if n.active {
		ctx.Broadcast(MsgLocation{Origin: n.id, Pos: ctx.Pos(), TTL: n.k})
	}
}

func addTo(m map[TriKey]map[int]bool, t TriKey, who int) {
	if m[t] == nil {
		m[t] = make(map[int]bool)
	}
	m[t][who] = true
}

func (n *node) Handle(ctx *sim.Context, from int, m sim.Message) {
	if !n.active {
		return
	}
	switch msg := m.(type) {
	case MsgLocation:
		if msg.Origin == n.id {
			return
		}
		n.pos[msg.Origin] = msg.Pos
		if msg.TTL > 1 && !n.fwdLoc[msg.Origin] {
			n.fwdLoc[msg.Origin] = true
			ctx.Broadcast(MsgLocation{Origin: msg.Origin, Pos: msg.Pos, TTL: msg.TTL - 1})
		}
	case MsgProposal:
		addTo(n.proposers, msg.T, from)
	case MsgAccept:
		addTo(n.accepters, msg.T, from)
	case MsgReject:
		// Rejection needs no bookkeeping: a triangle survives only with
		// explicit accepts (or proposals) from every corner.
	case MsgTriangles:
		if msg.Origin == n.id {
			return
		}
		for _, t := range msg.Triangles {
			n.known[t] = true
		}
		for id, p := range msg.Pos {
			n.pos[id] = p
		}
		if msg.TTL > 1 && !n.fwdTri[msg.Origin] {
			n.fwdTri[msg.Origin] = true
			fwd := msg
			fwd.TTL--
			ctx.Broadcast(fwd)
		}
	case MsgRemaining:
		for _, t := range msg.Triangles {
			addTo(n.remaining, t, from)
		}
	}
}

func (n *node) Tick(ctx *sim.Context, round int) {
	n.round = round
	if !n.active {
		return
	}
	switch round {
	case n.k:
		ctx.EmitState("ldel:propose")
		n.computeLocal(ctx)
	case n.k + 1:
		ctx.EmitState("ldel:respond")
		n.respond(ctx)
	case n.k + 2:
		ctx.EmitState("ldel:finalize")
		n.finalizeLDel(ctx)
	case n.k + 2 + n.k:
		// The Algorithm 3 gossip needs k rounds to spread before pruning.
		ctx.EmitState("ldel:prune")
		n.prune(ctx)
	case n.k + 3 + n.k:
		ctx.EmitState("ldel:done")
		n.finalizePLDel()
	}
}

func (n *node) Done() bool { return !n.active || n.round >= 2*n.k+3 }

// computeLocal runs Algorithm 2 steps 2–4 (nodeDecisions) on the positions
// the node heard and broadcasts its proposals in triangulation order.
func (n *node) computeLocal(ctx *sim.Context) {
	ids := make([]int, 0, len(n.pos))
	for id := range n.pos {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	pts := make([]geom.Point, len(ids))
	for i, id := range ids {
		pts[i] = n.pos[id]
	}
	// Distinct network nodes never collide; a triangulation error would
	// mean corrupted positions, in which case this node contributes no
	// triangles and the pipeline degrades to its Gabriel edges.
	var proposed []TriKey
	n.gabriel, n.mine, proposed, _ = nodeDecisions(n.id, ids, pts, n.radius*n.radius)
	for _, t := range proposed {
		addTo(n.proposers, t, n.id)
		ctx.Broadcast(MsgProposal{T: t})
	}
}

// respond implements Algorithm 2 step 5: accept or reject proposals for
// triangles this node is a corner of.
func (n *node) respond(ctx *sim.Context) {
	keys := sortedTris(n.proposers)
	for _, t := range keys {
		if !t.Has(n.id) || n.proposers[t][n.id] || n.responded[t] {
			continue
		}
		n.responded[t] = true
		if slices.Contains(n.mine, t) {
			ctx.Broadcast(MsgAccept{T: t})
		} else {
			ctx.Broadcast(MsgReject{T: t})
		}
	}
}

// finalizeLDel decides membership in LDel⁽¹⁾ (Algorithm 2 step 6) and
// broadcasts the node's Gabriel edges and kept triangles (Algorithm 3
// step 1).
func (n *node) finalizeLDel(ctx *sim.Context) {
	for t, props := range n.proposers {
		if !t.Has(n.id) || len(props) == 0 {
			continue
		}
		// This node itself must hold the triangle locally; the other two
		// corners must each have proposed or accepted it.
		if !slices.Contains(n.mine, t) {
			continue
		}
		ok := true
		for _, v := range t {
			if v == n.id {
				continue
			}
			if !props[v] && !n.accepters[t][v] {
				ok = false
				break
			}
		}
		if ok {
			n.kept[t] = true
			n.known[t] = true
		}
	}

	tris := sortedTriSet(n.kept)
	pos := make(map[int]geom.Point)
	for _, t := range tris {
		for _, v := range t {
			pos[v] = n.pos[v]
		}
	}
	ctx.Broadcast(MsgTriangles{Origin: n.id, Gabriel: n.gabriel, Triangles: tris, Pos: pos, TTL: n.k})
}

// prune implements Algorithm 3 step 2: drop incident triangles whose
// circumcircle strictly contains a vertex of an intersecting known
// triangle, then broadcast the remainder (step 3).
func (n *node) prune(ctx *sim.Context) {
	for _, t1 := range sortedTriSet(n.kept) {
		if !n.removedBy(t1) {
			n.pruned[t1] = true
		}
	}
	ctx.Broadcast(MsgRemaining{Triangles: sortedTriSet(n.pruned)})
}

// removedBy reports whether some triangle the node heard of removes t1.
func (n *node) removedBy(t1 TriKey) bool {
	p1, ok := n.corners(t1)
	if !ok {
		return false
	}
	for t2 := range n.known {
		if p2, ok := n.corners(t2); ok && removes(t1, p1, t2, p2) {
			return true
		}
	}
	return false
}

// corners returns the positions of t's vertices, if the node knows all
// three.
func (n *node) corners(t TriKey) (p [3]geom.Point, ok bool) {
	for i, v := range t {
		if p[i], ok = n.pos[v]; !ok {
			return p, false
		}
	}
	return p, true
}

// finalizePLDel implements Algorithm 3 step 4: keep a triangle only if
// both other corners still have it.
func (n *node) finalizePLDel() {
	for t := range n.pruned {
		ok := true
		for _, v := range t {
			if v == n.id {
				continue
			}
			if n.remaining[t] == nil || !n.remaining[t][v] {
				ok = false
				break
			}
		}
		if ok {
			n.final[t] = true
		}
	}
}

func sortedTris(m map[TriKey]map[int]bool) []TriKey {
	keys := make([]TriKey, 0, len(m))
	for t := range m {
		keys = append(keys, t)
	}
	sortTris(keys)
	return keys
}

func sortedTriSet(m map[TriKey]bool) []TriKey {
	keys := make([]TriKey, 0, len(m))
	for t := range m {
		keys = append(keys, t)
	}
	sortTris(keys)
	return keys
}

func sortTris(keys []TriKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
}

// Run executes the distributed LDel construction over the communication
// graph g (the unit disk graph of the participating node set) with the
// given transmission radius. Only nodes with active[id] == true take part;
// the rest stay silent. It returns the result plus the network for message
// accounting.
func Run(g *graph.Graph, active []bool, radius float64, maxRounds int, opts ...sim.Option) (*Result, *sim.Network, error) {
	return RunK(g, active, radius, 1, maxRounds, opts...)
}

// RunK is the distributed construction of LDel⁽ᵏ⁾: positions (and, for the
// planarization round, kept-triangle announcements) are gossiped k hops,
// after which the same propose/accept/prune protocol runs on k-hop
// knowledge. RunK(…, 1, …) is exactly Run. Tests assert RunK matches
// CentralizedK for k = 1 and 2.
func RunK(g *graph.Graph, active []bool, radius float64, k, maxRounds int, opts ...sim.Option) (*Result, *sim.Network, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("ldel: neighborhood parameter k must be >= 1, got %d", k)
	}
	active = allActive(active, g.N())
	opts = append([]sim.Option{sim.WithStage(Stage)}, opts...)
	net := sim.NewNetwork(g, func(id int) sim.Protocol {
		return &node{id: id, active: active[id], radius: radius, k: k}
	}, opts...)
	if _, err := net.Run(maxRounds); err != nil {
		// Keep the network reachable on failure for degraded-mode
		// accounting (message counts, per-node shim give-up ledger).
		return nil, net, fmt.Errorf("ldel: %w", err)
	}

	gabriel := make(map[graph.Edge]bool)
	kept := make(map[TriKey]bool)
	final := make(map[TriKey]int)
	for id := 0; id < g.N(); id++ {
		p, ok := net.Protocol(id).(*node)
		if !ok {
			return nil, nil, fmt.Errorf("ldel: unexpected protocol type at node %d", id)
		}
		for _, e := range p.gabriel {
			gabriel[e] = true
		}
		for t := range p.kept {
			kept[t] = true
		}
		for t := range p.final {
			final[t]++
		}
	}
	surviving := make(map[TriKey]bool)
	for t, count := range final {
		if count == 3 {
			surviving[t] = true
		}
	}
	return assemble(g.Points(), gabriel, kept, surviving), net, nil
}
