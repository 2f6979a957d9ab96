// Witness-scoped incremental maintenance. Every derived decision — a
// connector election, an LDel certificate — is a function of a bounded
// neighborhood, and the witness layers (connector.Witness, ldel.Witness)
// record exactly which candidates decided each one. Events therefore do
// not invalidate the derived caches: they accumulate a *scope* (the event
// node and its neighbors at event time), and the next Structures call
// re-runs only the elections whose witness scope intersects the
// two-hop ball around the accumulated scope, splicing the patch into the
// cached structures. The result is pinned bit-identical to a from-scratch
// rebuild by TestChurnBatchesMatchRebuild; DESIGN.md §14 carries the
// canonicity argument for why the untouched elections cannot change.
package maintain

import (
	"fmt"
	"sort"

	"geospanner/internal/cluster"
	"geospanner/internal/connector"
	"geospanner/internal/graph"
	"geospanner/internal/ldel"
)

// DefaultPatchScopeFraction is the scope-size fraction (of alive nodes)
// above which Structures abandons witness patching for the accumulated
// events and rebuilds from scratch — past that point the patch would
// re-run most elections anyway, and the from-scratch build has better
// constants. PatchScopeFraction == 0 selects this default; a negative
// value disables witness patching entirely (every structural event drops
// the caches — the measurement baseline for recompute_ratio).
const DefaultPatchScopeFraction = 0.25

// patchingEnabled reports whether witness patching is on.
func (s *State) patchingEnabled() bool { return s.PatchScopeFraction >= 0 }

// patchScopeFraction resolves the configured fraction.
func (s *State) patchScopeFraction() float64 {
	if s.PatchScopeFraction == 0 {
		return DefaultPatchScopeFraction
	}
	return s.PatchScopeFraction
}

// noteScope records that a structural event touched node v: v and its
// alive neighbors (at event time) seed the dirty scope of the next patch.
// With patching disabled this degrades to the conservative baseline —
// drop every derived cache.
func (s *State) noteScope(v int) {
	if !s.patchingEnabled() {
		s.cachedConn = nil
		s.cachedLDel = nil
		s.wit = nil
		s.ldwit = nil
		s.pending = nil
		s.pendingReloc = nil
		return
	}
	if s.cachedConn == nil {
		return // nothing cached to patch; the next Structures rebuilds
	}
	if s.pending == nil {
		s.pending = make(map[int]bool)
	}
	s.pending[v] = true
	for _, u := range s.aliveNeighbors(v) {
		s.pending[u] = true
	}
}

// noteReloc records that node v's position (and hence its unit-disk
// edges) changed. Relocations happen while the node is dead, so no cached
// election consulted the new position yet; the patch only needs the flag
// to refresh v's induced-graph edges if v is (or becomes) a backbone
// member.
func (s *State) noteReloc(v int) {
	if !s.patchingEnabled() || s.cachedConn == nil {
		return
	}
	if s.pendingReloc == nil {
		s.pendingReloc = make(map[int]bool)
	}
	s.pendingReloc[v] = true
}

// hasPendingWork reports whether the accumulated events can have changed
// the cached structures: any scoped event, or a relocation of a node the
// cache counts as a backbone member (a dead node's move is geometry-only).
func (s *State) hasPendingWork() bool {
	if len(s.pending) > 0 {
		return true
	}
	for v := range s.pendingReloc {
		if s.cachedConn.InBackbone[v] {
			return true
		}
	}
	return false
}

// clearPending resets the accumulated patch scope.
func (s *State) clearPending() {
	s.pending = nil
	s.pendingReloc = nil
}

// stateView adapts the maintained state to connector.View: alive-UDG
// adjacency over the full graph's current edges.
type stateView struct{ s *State }

func (v stateView) Adjacent(a, b int) bool {
	return v.s.alive[a] && v.s.alive[b] && v.s.full.HasEdge(a, b)
}

func (v stateView) AliveNeighbors(x int) []int { return v.s.aliveNeighbors(x) }

func containsSorted(list []int, x int) bool {
	i := sort.SearchInts(list, x)
	return i < len(list) && list[i] == x
}

// tryPatch re-runs the elections whose witness scope intersects the
// accumulated dirty scope and splices the results into the cached
// structures in place. It returns false — leaving the caches untouched
// except for already-exact splices being impossible (it mutates nothing
// before committing to run) — when the scope exceeds the fallback
// threshold. On any internal error it invalidates the caches and returns
// false so Structures falls back to the from-scratch build.
func (s *State) tryPatch(cl *cluster.Result) bool {
	// Patch scope: the accumulated per-event seeds plus one more hop. Seeds
	// are {event node} ∪ N(event node) at event time; the extra hop covers
	// decisions that read two-hop state (two-hop dominator lists, stage-2
	// propagation).
	scope := make(map[int]bool, 2*len(s.pending))
	for v := range s.pending {
		scope[v] = true
		for _, u := range s.aliveNeighbors(v) {
			scope[u] = true
		}
	}
	// The threshold weighs the patch's work — elections re-run around
	// alive scope nodes — against the full rebuild. Dead scope nodes only
	// index old records and cost nothing.
	aliveScope := 0
	for v := range scope {
		if s.alive[v] {
			aliveScope++
		}
	}
	if float64(aliveScope) > s.patchScopeFraction()*float64(s.AliveCount()) {
		s.PatchFallbacks++
		return false
	}
	scopeList := make([]int, 0, len(scope))
	for v := range scope {
		scopeList = append(scopeList, v)
	}
	sort.Ints(scopeList)

	view := stateView{s}
	conn := s.cachedConn
	cds := conn.CDS

	// Stage 0/1: dirty keys are every election a scope node witnessed
	// (byNode reverse index) plus every candidacy a scope node holds in the
	// current clustering — the latter discovers brand-new keys.
	dirty01 := make(map[connector.KeyID]bool)
	for _, v := range scopeList {
		for _, k := range s.wit.KeysOf(v) {
			if k.Stage < 2 {
				dirty01[k] = true
			}
		}
		if !s.alive[v] || cl.Status[v] != cluster.Dominatee {
			continue
		}
		connector.ProposalKeys(cl.DominatorsOf[v], cl.TwoHopDominators[v], connector.Options{},
			func(k connector.KeyID) { dirty01[k] = true })
	}
	keys01 := make([]connector.KeyID, 0, len(dirty01))
	for k := range dirty01 {
		keys01 = append(keys01, k)
	}
	connector.SortKeyIDs(keys01)

	// Each splice's CDS delta is applied immediately: a later key may
	// re-add an edge an earlier key dropped, and deferring the edits would
	// lose that ordering.
	changed1 := make(map[connector.KeyID]bool)
	for _, k := range keys01 {
		delta := s.wit.Splice(k, connector.RecomputeRecord(view, cl, k, nil))
		for _, e := range delta.RemovedEdges {
			cds.RemoveEdge(e.U, e.V)
		}
		for _, e := range delta.AddedEdges {
			cds.AddEdge(e.U, e.V)
		}
		if k.Stage == 1 && delta.WinnersChanged {
			changed1[k] = true
		}
	}

	// Stage 2: downstream of every changed stage-1 winner set, plus scoped
	// responders' existing keys, plus new responder candidacies a scope
	// node gained against current stage-1 winners in its neighborhood.
	dirty2 := make(map[connector.KeyID]bool)
	for k := range changed1 {
		dirty2[connector.KeyID{U: k.U, V: k.V, Stage: 2}] = true
	}
	for _, v := range scopeList {
		for _, k := range s.wit.KeysOf(v) {
			if k.Stage == 2 {
				dirty2[k] = true
			}
		}
		if !s.alive[v] || cl.Status[v] != cluster.Dominatee {
			continue
		}
		for _, w := range s.aliveNeighbors(v) {
			for _, k1 := range s.wit.Stage1WonBy(w) {
				if containsSorted(cl.DominatorsOf[v], k1.V) && containsSorted(cl.TwoHopDominators[v], k1.U) {
					dirty2[connector.KeyID{U: k1.U, V: k1.V, Stage: 2}] = true
				}
			}
		}
	}
	keys2 := make([]connector.KeyID, 0, len(dirty2))
	for k := range dirty2 {
		keys2 = append(keys2, k)
	}
	connector.SortKeyIDs(keys2)
	for _, k := range keys2 {
		delta := s.wit.Splice(k, connector.RecomputeRecord(view, cl, k, s.wit.Stage1Winners(k.U, k.V)))
		for _, e := range delta.RemovedEdges {
			cds.RemoveEdge(e.U, e.V)
		}
		for _, e := range delta.AddedEdges {
			cds.AddEdge(e.U, e.V)
		}
	}

	// Backbone membership diff, plus forced refresh of relocated members:
	// a node that was and stays a member across a move keeps stale induced
	// edges until this leave-and-rejoin.
	n := len(s.pts)
	newIn := make([]bool, n)
	isConn := make([]bool, n)
	for v := 0; v < n; v++ {
		if !s.alive[v] {
			continue
		}
		if s.wit.IsConnector(v) {
			isConn[v] = true
			newIn[v] = true
		} else if cl.Status[v] == cluster.Dominator {
			newIn[v] = true
		}
	}

	icds := conn.ICDS
	ldelDirty := make(map[int]bool)
	icdsLeave := func(v int) {
		ldelDirty[v] = true
		for _, u := range append([]int(nil), icds.Neighbors(v)...) {
			icds.RemoveEdge(v, u)
			ldelDirty[u] = true
		}
	}
	icdsJoin := func(v int) {
		ldelDirty[v] = true
		for _, u := range s.full.Neighbors(v) {
			if s.alive[u] && newIn[u] && u != v {
				icds.AddEdge(v, u)
				ldelDirty[u] = true
			}
		}
	}
	for v := 0; v < n; v++ {
		switch {
		case conn.InBackbone[v] && !newIn[v]:
			icdsLeave(v)
		case !conn.InBackbone[v] && newIn[v]:
			// Joins run after every leave below.
		case conn.InBackbone[v] && newIn[v] && s.pendingReloc[v]:
			icdsLeave(v)
		}
	}
	for v := 0; v < n; v++ {
		if !conn.InBackbone[v] && newIn[v] {
			icdsJoin(v)
		} else if conn.InBackbone[v] && newIn[v] && s.pendingReloc[v] {
			icdsJoin(v)
		}
	}

	// Rebuild the aggregate views the splices do not track edge-by-edge:
	// membership lists and the primed (coverage) graphs — mirroring
	// connector's assemble exactly so patched and rebuilt Results are
	// bit-identical.
	conn.Cluster = cl
	conn.InBackbone = newIn
	conn.Connectors = nil
	conn.Backbone = nil
	for v := 0; v < n; v++ {
		if isConn[v] {
			conn.Connectors = append(conn.Connectors, v)
		}
		if newIn[v] {
			conn.Backbone = append(conn.Backbone, v)
		}
	}
	conn.CDSPrime = cds.Clone()
	conn.ICDSPrime = icds.Clone()
	for v := 0; v < n; v++ {
		for _, u := range cl.DominatorsOf[v] {
			conn.CDSPrime.AddEdge(v, u)
			conn.ICDSPrime.AddEdge(v, u)
		}
	}

	dirtyList := make([]int, 0, len(ldelDirty))
	for v := range ldelDirty {
		dirtyList = append(dirtyList, v)
	}
	sort.Ints(dirtyList)
	pldel, err := s.ldwit.Patch(icds, newIn, dirtyList)
	if err != nil {
		// The caches are half-spliced; drop them and let Structures rebuild.
		s.invalidate()
		return false
	}
	s.cachedLDel = pldel
	return true
}

// structures is the full-recompute path: build the connector and LDel
// layers from the current clustering, with witnesses when patching is
// enabled.
func (s *State) structures(cl *cluster.Result) (*connector.Result, *graph.Graph, error) {
	g := s.AliveGraph()
	var conn *connector.Result
	if s.patchingEnabled() {
		var wit *connector.Witness
		conn, wit = connector.CentralizedWitness(g, cl)
		res, ldwit, err := ldel.CentralizedWitness(conn.ICDS, conn.InBackbone, s.radius)
		if err != nil {
			s.invalidate()
			return nil, nil, fmt.Errorf("maintain: planarize: %w", err)
		}
		s.wit = wit
		s.ldwit = ldwit
		s.cachedConn = conn
		s.cachedLDel = res.PLDel
	} else {
		conn = connector.Centralized(g, cl)
		res, err := ldel.Centralized(conn.ICDS, conn.InBackbone, s.radius)
		if err != nil {
			s.invalidate()
			return nil, nil, fmt.Errorf("maintain: planarize: %w", err)
		}
		s.wit = nil
		s.ldwit = nil
		s.cachedConn = conn
		s.cachedLDel = res.PLDel
	}
	s.Recomputes++
	return s.cachedConn, s.cachedLDel, nil
}
