// Witness-scoped incremental maintenance. Every derived decision — a
// clustering entry, a connector election, an LDel certificate — is a
// function of a bounded neighborhood, and the witness layers
// (connector.Witness, ldel.Witness) record exactly which candidates
// decided each one. Events therefore do not invalidate the caches: they
// only grow a dirty *scope* (the event node and its neighbors at event
// time), and the next Clustering or Structures call widens it by one hop
// and hands it to each layer's own update — cluster's Rederive, then
// connector's and ldel's Witness.Patch — which re-run only the decisions
// inside it. The result is pinned bit-identical to a from-scratch rebuild
// by TestChurnBatchesMatchRebuild; DESIGN.md §14 carries the canonicity
// argument for why the untouched decisions cannot change.
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
// above which the accumulated events are not patched and every cache is
// rebuilt from scratch — past that point the patch would re-run most
// decisions anyway, and the from-scratch build has better constants.
// PatchScopeFraction == 0 selects this default; a negative value always
// rebuilds (the measurement baseline for recompute_ratio).
const DefaultPatchScopeFraction = 0.25

// patchScopeFraction resolves the configured fraction.
func (s *State) patchScopeFraction() float64 {
	if s.PatchScopeFraction == 0 {
		return DefaultPatchScopeFraction
	}
	return s.PatchScopeFraction
}

// noteScope records that a structural event touched node v: v and its
// alive neighbors (at event time) seed the dirty scope of the next patch.
func (s *State) noteScope(v int) {
	if s.cachedCl == nil {
		return // nothing cached to patch; the next call rebuilds
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
// decision consulted the new position yet; the patch only needs the flag
// to refresh v's induced-graph edges if v stays a backbone member.
func (s *State) noteReloc(v int) {
	if s.cachedCl == nil {
		return
	}
	if s.pendingReloc == nil {
		s.pendingReloc = make(map[int]bool)
	}
	s.pendingReloc[v] = true
}

// stateView adapts the maintained state to cluster.View: alive-UDG
// adjacency over the full graph's current edges.
type stateView struct{ s *State }

func (v stateView) Adjacent(a, b int) bool {
	return v.s.alive[a] && v.s.alive[b] && v.s.full.HasEdge(a, b)
}

func (v stateView) AliveNeighbors(x int) []int {
	if !v.s.alive[x] {
		return nil
	}
	return v.s.aliveNeighbors(x)
}

// refresh brings the caches current with the events since the last call.
// With no pending scope there is nothing to do: a relocation alone moved
// a dead node, which no cache holds in its backbone. Otherwise the seeds
// widen by one hop — the extra hop covers decisions that read two-hop
// state (two-hop dominator lists, stage-2 propagation) — and the scope
// either exceeds the cap, dropping every cache for the from-scratch path
// (counted in PatchFallbacks when structures were cached), or is handed
// to the clustering, connector, and LDel updates in turn (counted in
// Patches when structures were cached). An LDel failure drops the
// half-patched caches too.
func (s *State) refresh() {
	pending, relocated := s.pending, s.pendingReloc
	s.pending, s.pendingReloc = nil, nil
	if len(pending) == 0 {
		return
	}
	inScope := make(map[int]bool, 2*len(pending))
	for v := range pending {
		inScope[v] = true
		for _, u := range s.aliveNeighbors(v) {
			inScope[u] = true
		}
	}
	// The cap weighs the patch's work — decisions re-run around alive
	// scope nodes — against the full rebuild. Dead scope nodes only index
	// old records and cost nothing.
	scope := make([]int, 0, len(inScope))
	aliveScope := 0
	for v := range inScope {
		scope = append(scope, v)
		if s.alive[v] {
			aliveScope++
		}
	}
	frac := s.patchScopeFraction()
	if frac < 0 || float64(aliveScope) > frac*float64(s.AliveCount()) {
		if frac >= 0 && s.cachedConn != nil {
			s.PatchFallbacks++
		}
		s.invalidate()
		return
	}
	sort.Ints(scope)
	view := stateView{s}
	s.cachedCl.Rederive(view, s.isDominator, scope)
	if s.cachedConn != nil {
		moved := make([]int, 0, len(relocated))
		for v := range relocated {
			moved = append(moved, v)
		}
		sort.Ints(moved)
		dirty := s.wit.Patch(view, s.cachedCl, s.cachedConn, scope, moved)
		pldel, err := s.ldwit.Patch(s.cachedConn.ICDS, s.cachedConn.InBackbone, dirty)
		if err != nil {
			s.invalidate()
			return
		}
		s.cachedLDel = pldel
		s.Patches++
	}
}

// rebuild is the from-scratch path: derive whatever clustering is not
// cached, then the connector and LDel layers with their witnesses, all
// over one alive graph.
func (s *State) rebuild() (*connector.Result, *graph.Graph, error) {
	g := s.AliveGraph()
	if s.cachedCl == nil {
		s.cachedCl = cluster.Derive(g, s.dominators())
	}
	conn, wit := connector.CentralizedWitness(g, s.cachedCl)
	res, ldwit, err := ldel.CentralizedWitness(conn.ICDS, conn.InBackbone, s.radius)
	if err != nil {
		s.invalidate()
		return nil, nil, fmt.Errorf("maintain: planarize: %w", err)
	}
	s.cachedConn, s.cachedLDel = conn, res.PLDel
	s.wit, s.ldwit = wit, ldwit
	s.Recomputes++
	return conn, res.PLDel, nil
}
