// Election witnesses: the incremental-maintenance contract of Algorithm 1.
//
// Every connector decision is an election over a bounded, locally
// determined candidate set — stage 0/1 candidates are dominatees adjacent
// to the key's first dominator, stage 2 candidates are dominatees adjacent
// to a stage-1 winner — and the winners are exactly the local minima of
// that set under alive-UDG adjacency. A keyRecord captures the full
// witness of one such decision: the candidates (the witness set), the
// winners, and the path edges they contribute. Because the outcome of a
// key is a pure function of its candidate set, the candidates' mutual
// adjacency, and (for stage 2) the upstream stage-1 winners, a topology
// change can only alter keys whose witness scope it intersects; every
// other election is provably untouched. Witness.Patch exploits this to
// re-run only the dirty keys after churn and splice the result into the
// cached backbone, bit-identical to a from-scratch election.
package connector

import (
	"slices"
	"sort"

	"geospanner/internal/cluster"
	"geospanner/internal/graph"
)

// keyID identifies one connector election: a dominator pair and a stage.
// Stage 0 keys have U < V (unordered 2-hop pairs); stage 1 and 2 keys are
// oriented 3-hop paths from U to V.
type keyID struct {
	U, V  int
	Stage int
}

// keyRecord is the witness of one election decision.
type keyRecord struct {
	// Cands is the sorted candidate set — the witness set that decided the
	// election. For stage 2 these are the responders.
	Cands []int
	// Winners is the sorted set of elected connectors (the local minima of
	// Cands under alive-UDG adjacency); non-empty whenever Cands is.
	Winners []int
	// Edges are the CDS path edges contributed by this key's winners
	// (including stage-2 trigger edges). Edges are unique within a record.
	Edges []graph.Edge
}

// electAmong returns the local minima of the sorted candidate set: w wins
// unless a smaller-ID candidate is adjacent to it — Algorithm 1's
// smallest-ID election (steps 4, 6, and 8), which the protocol's nodes
// decide from the proposals they hear.
func electAmong(g *graph.Graph, cands []int) []int {
	var winners []int
	for i, w := range cands {
		won := true
		for _, x := range cands[:i] {
			if g.HasEdge(w, x) {
				won = false
				break
			}
		}
		if won {
			winners = append(winners, w)
		}
	}
	return winners
}

// recomputeRecord derives the current witness record of one key from local
// state: candidates, winners, and path edges. stage1Winners is the current
// winner set of the key's stage-1 sibling and is only read for stage-2
// keys. It returns nil when the key has no candidates (the key does not
// exist in the current topology).
func recomputeRecord(g *graph.Graph, cl *cluster.Result, k keyID, stage1Winners []int) *keyRecord {
	if k.Stage == 2 {
		return recordStage2(g, cl, k, stage1Winners)
	}
	return recordStage01(g, cl, k)
}

// recordStage01 recomputes a stage-0 or stage-1 record. Every candidate
// has k.U among its dominators and is therefore adjacent to k.U, so
// scanning k.U's alive neighborhood enumerates the full proposal set.
func recordStage01(g *graph.Graph, cl *cluster.Result, k keyID) *keyRecord {
	var cands []int
	for _, w := range g.Neighbors(k.U) {
		if cl.Status[w] != cluster.Dominatee || !contains(cl.DominatorsOf[w], k.U) {
			continue
		}
		if k.Stage == 0 {
			if !contains(cl.DominatorsOf[w], k.V) {
				continue
			}
		} else if !contains(cl.TwoHopDominators[w], k.V) {
			continue
		}
		cands = append(cands, w)
	}
	if len(cands) == 0 {
		return nil
	}
	rec := &keyRecord{Cands: cands, Winners: electAmong(g, cands)}
	for _, w := range rec.Winners {
		if k.Stage == 0 {
			rec.Edges = append(rec.Edges, graph.MakeEdge(k.U, w), graph.MakeEdge(w, k.V))
		} else {
			rec.Edges = append(rec.Edges, graph.MakeEdge(k.U, w))
		}
	}
	return rec
}

// recordStage2 recomputes a stage-2 record: responders are dominatees
// adjacent to a current stage-1 winner with k.V among their dominators and
// k.U among their two-hop dominators; each winner links to k.V and to
// every triggering stage-1 winner it can hear.
func recordStage2(g *graph.Graph, cl *cluster.Result, k keyID, stage1Winners []int) *keyRecord {
	if len(stage1Winners) == 0 {
		return nil
	}
	var cands []int
	triggers := make(map[int][]int)
	for _, w := range stage1Winners {
		for _, x := range g.Neighbors(w) {
			if cl.Status[x] != cluster.Dominatee || !contains(cl.DominatorsOf[x], k.V) || !contains(cl.TwoHopDominators[x], k.U) {
				continue
			}
			if len(triggers[x]) == 0 {
				cands = append(cands, x)
			}
			triggers[x] = append(triggers[x], w)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Ints(cands)
	rec := &keyRecord{Cands: cands, Winners: electAmong(g, cands)}
	for _, x := range rec.Winners {
		rec.Edges = append(rec.Edges, graph.MakeEdge(x, k.V))
		for _, w := range triggers[x] {
			rec.Edges = append(rec.Edges, graph.MakeEdge(w, x))
		}
	}
	return rec
}

// spliceDelta reports what installing a record changed in the aggregated
// election state.
type spliceDelta struct {
	// AddedEdges and RemovedEdges are CDS edge-set transitions: edges whose
	// reference count crossed zero. A caller maintaining a CDS graph applies
	// each delta immediately, removals before additions.
	AddedEdges, RemovedEdges []graph.Edge
	// WinnersChanged reports that the key's winner set differs from the
	// previous record — for stage-1 keys, the signal that the downstream
	// stage-2 key is dirty.
	WinnersChanged bool
}

// Witness is the aggregated election witness: every key's record plus the
// reverse indexes incremental maintenance needs — candidate membership per
// node, stage-1 wins per node, election-win counts, and the CDS edge
// multiset.
type Witness struct {
	records   map[keyID]*keyRecord
	byNode    [][]keyID          // keys where the node is a candidate
	stage1Won [][]keyID          // stage-1 keys the node currently wins
	wins      []int              // elections won per node
	edgeRef   map[graph.Edge]int // CDS path-edge reference counts
}

// newWitness returns an empty witness for an n-node network.
func newWitness(n int) *Witness {
	return &Witness{
		records:   make(map[keyID]*keyRecord),
		byNode:    make([][]keyID, n),
		stage1Won: make([][]keyID, n),
		wins:      make([]int, n),
		edgeRef:   make(map[graph.Edge]int),
	}
}

// stage1Winners returns the current winner set of the stage-1 key (u, v),
// nil when it does not exist.
func (w *Witness) stage1Winners(u, v int) []int {
	if rec := w.records[keyID{U: u, V: v, Stage: 1}]; rec != nil {
		return rec.Winners
	}
	return nil
}

// splice installs rec as the record of k (nil or empty removes the key),
// maintaining every index, and reports what changed.
func (w *Witness) splice(k keyID, rec *keyRecord) spliceDelta {
	if rec != nil && len(rec.Cands) == 0 {
		rec = nil
	}
	var delta spliceDelta
	old := w.records[k]
	if old != nil {
		for _, e := range old.Edges {
			w.edgeRef[e]--
			if w.edgeRef[e] == 0 {
				delete(w.edgeRef, e)
				delta.RemovedEdges = append(delta.RemovedEdges, e)
			}
		}
		for _, v := range old.Cands {
			w.byNode[v] = deleteKey(w.byNode[v], k)
		}
		for _, v := range old.Winners {
			w.wins[v]--
			if k.Stage == 1 {
				w.stage1Won[v] = deleteKey(w.stage1Won[v], k)
			}
		}
	}
	if rec != nil {
		for _, e := range rec.Edges {
			if w.edgeRef[e] == 0 {
				delta.AddedEdges = append(delta.AddedEdges, e)
			}
			w.edgeRef[e]++
		}
		for _, v := range rec.Cands {
			w.byNode[v] = append(w.byNode[v], k)
		}
		for _, v := range rec.Winners {
			w.wins[v]++
			if k.Stage == 1 {
				w.stage1Won[v] = append(w.stage1Won[v], k)
			}
		}
		w.records[k] = rec
	} else {
		delete(w.records, k)
	}
	switch {
	case old == nil && rec == nil:
	case old == nil || rec == nil:
		delta.WinnersChanged = true
	default:
		delta.WinnersChanged = !slices.Equal(old.Winners, rec.Winners)
	}
	return delta
}

// deleteKey removes k from keys, which holds it once, and releases a
// list it empties.
func deleteKey(keys []keyID, k keyID) []keyID {
	if len(keys) == 1 {
		return nil
	}
	i := slices.Index(keys, k)
	return slices.Delete(keys, i, i+1)
}

// isConnector flags, per node, whether it currently wins an election.
func (w *Witness) isConnector() []bool {
	flags := make([]bool, len(w.wins))
	for v, c := range w.wins {
		flags[v] = c > 0
	}
	return flags
}

// assemble builds the Result graphs from the witness's aggregated state —
// the same construction Centralized performs from its elected sets, so a
// witness maintained by exact splices yields a Result bit-identical to a
// from-scratch election.
func (w *Witness) assemble(g *graph.Graph, cl *cluster.Result) *Result {
	edges := make([]graph.Edge, 0, len(w.edgeRef))
	for e := range w.edgeRef {
		edges = append(edges, e)
	}
	return assemble(g, cl, w.isConnector(), edges)
}

// sortKeyIDs orders keys by (U, V, Stage) — the deterministic iteration
// order of dirty-key sets.
func sortKeyIDs(keys []keyID) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].U != keys[j].U {
			return keys[i].U < keys[j].U
		}
		if keys[i].V != keys[j].V {
			return keys[i].V < keys[j].V
		}
		return keys[i].Stage < keys[j].Stage
	})
}

// CentralizedWitness computes the same Result as Centralized — the
// regression tests pin the equality — while building the full election
// witness: it decides every key exactly as Centralized does and splices
// each record into the witness, whose aggregated records then assemble
// the Result. g is the alive unit disk graph (dead nodes isolated).
func CentralizedWitness(g *graph.Graph, cl *cluster.Result) (*Result, *Witness) {
	wit := newWitness(g.N())
	electAll(g, cl, Options{}, func(k keyID, rec *keyRecord) { wit.splice(k, rec) })
	return wit.assemble(g, cl), wit
}

// Patch brings res, the Result this witness backs, current after a
// topology change and returns the sorted nodes whose backbone membership
// or ICDS row changed — the dirty set ldel's Witness.Patch revisits. g
// is the current unit disk graph over the alive nodes and cl the current
// clustering over it, a dead node an isolated dominatee.
// scope must hold every node whose liveness, adjacency, or clustering
// entry changed, together with its alive neighbors before and after the
// change; moved lists the nodes whose position changed.
//
// Patch re-runs every election a scope node witnessed or now proposes
// for (stages 0 and 1), then every stage-2 election downstream of a
// changed stage-1 winner set, witnessed by a scope node, or newly
// answerable by one; it splices each record and applies its CDS delta at
// once, since a later key may re-add an edge an earlier one dropped.
// ICDS rows are rebuilt for the nodes that leave or join the backbone and
// for moved members, whose induced edges changed with their position;
// the membership lists and primed graphs are derived as assemble derives
// them.
func (w *Witness) Patch(g *graph.Graph, cl *cluster.Result, res *Result, scope, moved []int) []int {
	dirty := make(map[keyID]bool)
	for _, v := range scope {
		for _, k := range w.byNode[v] {
			if k.Stage < 2 {
				dirty[k] = true
			}
		}
		if cl.Status[v] == cluster.Dominatee {
			proposalKeys(cl.DominatorsOf[v], cl.TwoHopDominators[v], Options{}, func(k keyID) { dirty[k] = true })
		}
	}
	changed1 := w.resplice(g, cl, res.CDS, dirty)

	dirty = make(map[keyID]bool, len(changed1))
	for _, k := range changed1 {
		dirty[keyID{U: k.U, V: k.V, Stage: 2}] = true
	}
	for _, v := range scope {
		for _, k := range w.byNode[v] {
			if k.Stage == 2 {
				dirty[k] = true
			}
		}
		if cl.Status[v] != cluster.Dominatee {
			continue
		}
		for _, x := range g.Neighbors(v) {
			for _, k1 := range w.stage1Won[x] {
				if contains(cl.DominatorsOf[v], k1.V) && contains(cl.TwoHopDominators[v], k1.U) {
					dirty[keyID{U: k1.U, V: k1.V, Stage: 2}] = true
				}
			}
		}
	}
	w.resplice(g, cl, res.CDS, dirty)

	was := res.InBackbone
	res.setMembers(cl, w.isConnector())
	now := res.InBackbone
	icds := res.ICDS
	touched := make(map[int]bool)
	leave := func(v int) {
		touched[v] = true
		for _, u := range slices.Clone(icds.Neighbors(v)) {
			icds.RemoveEdge(v, u)
			touched[u] = true
		}
	}
	join := func(v int) {
		touched[v] = true
		for _, u := range g.Neighbors(v) {
			if now[u] {
				icds.AddEdge(v, u)
				touched[u] = true
			}
		}
	}
	// Every leave runs before any join, so no join links to a row that a
	// later leave would clear.
	for v := range was {
		if was[v] && !now[v] {
			leave(v)
		}
	}
	for _, v := range moved {
		if was[v] && now[v] {
			leave(v)
		}
	}
	for v := range now {
		if now[v] && !was[v] {
			join(v)
		}
	}
	for _, v := range moved {
		if was[v] && now[v] {
			join(v)
		}
	}
	res.setPrimes()

	out := make([]int, 0, len(touched))
	for v := range touched {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// resplice re-decides the keys of dirty in key order, splicing each record
// and applying its CDS delta to cds, and returns the stage-1 keys whose
// winner set changed.
func (w *Witness) resplice(g *graph.Graph, cl *cluster.Result, cds *graph.Graph, dirty map[keyID]bool) []keyID {
	keys := make([]keyID, 0, len(dirty))
	for k := range dirty {
		keys = append(keys, k)
	}
	sortKeyIDs(keys)
	var changed []keyID
	for _, k := range keys {
		var s1 []int
		if k.Stage == 2 {
			s1 = w.stage1Winners(k.U, k.V)
		}
		delta := w.splice(k, recomputeRecord(g, cl, k, s1))
		for _, e := range delta.RemovedEdges {
			cds.RemoveEdge(e.U, e.V)
		}
		for _, e := range delta.AddedEdges {
			cds.AddEdge(e.U, e.V)
		}
		if k.Stage == 1 && delta.WinnersChanged {
			changed = append(changed, k)
		}
	}
	return changed
}
