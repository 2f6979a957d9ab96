// Election witnesses: the incremental-maintenance contract of Algorithm 1.
//
// Every connector decision is an election over a bounded, locally
// determined candidate set — stage 0/1 candidates are dominatees adjacent
// to the key's first dominator, stage 2 candidates are dominatees adjacent
// to a stage-1 winner — and the winners are exactly the local minima of
// that set under alive-UDG adjacency. A KeyRecord captures the full
// witness of one such decision: the candidates (the witness set), the
// winners, and the path edges they contribute. Because the outcome of a
// key is a pure function of its candidate set, the candidates' mutual
// adjacency, and (for stage 2) the upstream stage-1 winners, a topology
// change can only alter keys whose witness scope it intersects; every
// other election is provably untouched. internal/maintain exploits this to
// re-run only the dirty keys after a churn event and splice the result
// into the cached backbone, bit-identical to a from-scratch election.
package connector

import (
	"sort"

	"geospanner/internal/cluster"
	"geospanner/internal/graph"
)

// KeyID identifies one connector election: a dominator pair and a stage.
// Stage 0 keys have U < V (unordered 2-hop pairs); stage 1 and 2 keys are
// oriented 3-hop paths from U to V.
type KeyID struct {
	U, V  int
	Stage int
}

// KeyRecord is the witness of one election decision.
type KeyRecord struct {
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

// View is the read surface a witnessed election needs: alive-UDG adjacency.
// Role information comes from the cluster.Result passed alongside.
type View interface {
	// Adjacent reports an alive-UDG edge between a and b.
	Adjacent(a, b int) bool
	// AliveNeighbors returns the sorted alive UDG neighbors of v (empty for
	// a dead node).
	AliveNeighbors(v int) []int
}

// graphView adapts an alive unit-disk graph (dead nodes isolated) to View.
type graphView struct{ g *graph.Graph }

func (gv graphView) Adjacent(a, b int) bool     { return gv.g.HasEdge(a, b) }
func (gv graphView) AliveNeighbors(v int) []int { return gv.g.Neighbors(v) }

// electAmong returns the local minima of the sorted candidate set: w wins
// unless a smaller-ID candidate is adjacent to it — Algorithm 1's
// smallest-ID election (steps 4, 6, and 8), which the protocol's nodes
// decide from the proposals they hear.
func electAmong(view View, cands []int) []int {
	var winners []int
	for i, w := range cands {
		won := true
		for _, x := range cands[:i] {
			if view.Adjacent(w, x) {
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

// RecomputeRecord derives the current witness record of one key from local
// state: candidates, winners, and path edges. stage1Winners is the current
// winner set of the key's stage-1 sibling and is only read for stage-2
// keys. It returns nil when the key has no candidates (the key does not
// exist in the current topology).
func RecomputeRecord(view View, cl *cluster.Result, k KeyID, stage1Winners []int) *KeyRecord {
	if k.Stage == 2 {
		return recordStage2(view, cl, k, stage1Winners)
	}
	return recordStage01(view, cl, k)
}

// recordStage01 recomputes a stage-0 or stage-1 record. Every candidate
// has k.U among its dominators and is therefore adjacent to k.U, so
// scanning k.U's alive neighborhood enumerates the full proposal set.
func recordStage01(view View, cl *cluster.Result, k KeyID) *KeyRecord {
	var cands []int
	for _, w := range view.AliveNeighbors(k.U) {
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
	rec := &KeyRecord{Cands: cands, Winners: electAmong(view, cands)}
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
func recordStage2(view View, cl *cluster.Result, k KeyID, stage1Winners []int) *KeyRecord {
	if len(stage1Winners) == 0 {
		return nil
	}
	var cands []int
	triggers := make(map[int][]int)
	for _, w := range stage1Winners {
		for _, x := range view.AliveNeighbors(w) {
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
	rec := &KeyRecord{Cands: cands, Winners: electAmong(view, cands)}
	for _, x := range rec.Winners {
		rec.Edges = append(rec.Edges, graph.MakeEdge(x, k.V))
		for _, w := range triggers[x] {
			rec.Edges = append(rec.Edges, graph.MakeEdge(w, x))
		}
	}
	return rec
}

// SpliceDelta reports what installing a record changed in the aggregated
// election state.
type SpliceDelta struct {
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
	records   map[KeyID]*KeyRecord
	byNode    map[int]map[KeyID]struct{} // keys where the node is a candidate
	stage1Won map[int]map[KeyID]struct{} // stage-1 keys the node currently wins
	wins      map[int]int                // elections won per node
	edgeRef   map[graph.Edge]int         // CDS path-edge reference counts
}

// NewWitness returns an empty witness.
func NewWitness() *Witness {
	return &Witness{
		records:   make(map[KeyID]*KeyRecord),
		byNode:    make(map[int]map[KeyID]struct{}),
		stage1Won: make(map[int]map[KeyID]struct{}),
		wins:      make(map[int]int),
		edgeRef:   make(map[graph.Edge]int),
	}
}

// Record returns the current record of k, nil when the key does not exist.
func (w *Witness) Record(k KeyID) *KeyRecord { return w.records[k] }

// Stage1Winners returns the current winner set of the stage-1 key (u, v),
// nil when it does not exist.
func (w *Witness) Stage1Winners(u, v int) []int {
	if rec := w.records[KeyID{U: u, V: v, Stage: 1}]; rec != nil {
		return rec.Winners
	}
	return nil
}

// KeysOf returns every key where v is currently a candidate.
func (w *Witness) KeysOf(v int) []KeyID {
	set := w.byNode[v]
	if len(set) == 0 {
		return nil
	}
	out := make([]KeyID, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}

// Stage1WonBy returns the stage-1 keys v currently wins.
func (w *Witness) Stage1WonBy(v int) []KeyID {
	set := w.stage1Won[v]
	if len(set) == 0 {
		return nil
	}
	out := make([]KeyID, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}

// IsConnector reports whether v currently wins any election.
func (w *Witness) IsConnector(v int) bool { return w.wins[v] > 0 }

// Keys counts live records (testing/diagnostics).
func (w *Witness) Keys() int { return len(w.records) }

// Splice installs rec as the record of k (nil or empty removes the key),
// maintaining every index, and reports what changed.
func (w *Witness) Splice(k KeyID, rec *KeyRecord) SpliceDelta {
	if rec != nil && len(rec.Cands) == 0 {
		rec = nil
	}
	var delta SpliceDelta
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
			if set := w.byNode[v]; set != nil {
				delete(set, k)
				if len(set) == 0 {
					delete(w.byNode, v)
				}
			}
		}
		for _, v := range old.Winners {
			if w.wins[v]--; w.wins[v] == 0 {
				delete(w.wins, v)
			}
			if k.Stage == 1 {
				if set := w.stage1Won[v]; set != nil {
					delete(set, k)
					if len(set) == 0 {
						delete(w.stage1Won, v)
					}
				}
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
			set := w.byNode[v]
			if set == nil {
				set = make(map[KeyID]struct{})
				w.byNode[v] = set
			}
			set[k] = struct{}{}
		}
		for _, v := range rec.Winners {
			w.wins[v]++
			if k.Stage == 1 {
				set := w.stage1Won[v]
				if set == nil {
					set = make(map[KeyID]struct{})
					w.stage1Won[v] = set
				}
				set[k] = struct{}{}
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
		delta.WinnersChanged = !equalInts(old.Winners, rec.Winners)
	}
	return delta
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Assemble builds the Result graphs from the witness's aggregated state —
// the same construction Centralized performs from its elected sets, so a
// witness maintained by exact splices yields a Result bit-identical to a
// from-scratch election.
func (w *Witness) Assemble(g *graph.Graph, cl *cluster.Result) *Result {
	isConnector := make([]bool, g.N())
	for v, c := range w.wins {
		if c > 0 {
			isConnector[v] = true
		}
	}
	edges := make([]graph.Edge, 0, len(w.edgeRef))
	for e := range w.edgeRef {
		edges = append(edges, e)
	}
	return assemble(g, cl, isConnector, edges)
}

// SortKeyIDs orders keys by (U, V, Stage) — the deterministic iteration
// order of dirty-key sets.
func SortKeyIDs(keys []KeyID) {
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
	wit := NewWitness()
	electAll(graphView{g}, cl, Options{}, func(k KeyID, rec *KeyRecord) { wit.Splice(k, rec) })
	return wit.Assemble(g, cl), wit
}
