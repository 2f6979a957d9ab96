// Package maintain implements incremental maintenance of the backbone
// under node failures and recoveries — the paper's future-work item
// ("dynamic updating of the planar backbone"). The key observation is that
// the clustering *roles* (dominator / dominatee) can be repaired locally:
//
//   - when a dominator fails, only its dominatees can become uncovered,
//     and promoting the uncovered ones in ID order restores a maximal
//     independent set touching at most deg(v) nodes;
//   - when a dominatee or connector fails, no role changes at all;
//   - when a node recovers, it joins as a dominatee if any neighbor
//     dominates it and as a dominator otherwise.
//
// The derived structures (connectors, induced graphs, LDel planarization)
// are then recomputed from the repaired roles — in a deployment that is a
// constant-message local protocol per the paper's bounds; here the package
// tracks role churn as the locality measure, and tests assert that every
// invariant (independence, domination, CDS connectivity, planarity,
// spanning) survives arbitrary failure/recovery sequences.
package maintain

import (
	"errors"
	"fmt"
	"sort"

	"geospanner/internal/cluster"
	"geospanner/internal/connector"
	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/ldel"
	"geospanner/internal/udg"
)

// Maintenance errors.
var (
	// ErrDeadNode is returned when failing an already-failed node or
	// recovering an alive one.
	ErrDeadNode = errors.New("maintain: node state conflict")
	// ErrUnknownNode is returned for out-of-range node IDs.
	ErrUnknownNode = errors.New("maintain: unknown node")
)

// State tracks a network with a maintained clustering under node
// failures and recoveries. Node IDs are stable; failed nodes keep their
// slot and may recover later.
type State struct {
	pts    []geom.Point
	radius float64
	full   *graph.Graph // UDG over all nodes
	alive  []bool
	status []cluster.Status

	// RoleChanges counts nodes whose role changed across all events — the
	// locality measure of incremental maintenance.
	RoleChanges int

	// Recomputes counts full backbone recomputations performed by
	// Structures. With witness patching enabled (the default), structural
	// events accumulate a dirty scope and Structures splices a patch into
	// the cached structures instead — counted in Patches, not here — so
	// recompute_ratio (Recomputes per epoch) stays well below 1.0 under
	// churn.
	Recomputes int

	// Patches counts Structures calls that serviced the accumulated
	// events by witness-scoped patching (bit-identical to a rebuild).
	Patches int

	// PatchFallbacks counts patches abandoned because the dirty scope
	// exceeded PatchScopeFraction of the alive nodes; each such call also
	// counts in Recomputes.
	PatchFallbacks int

	// PatchScopeFraction bounds the witness patch scope as a fraction of
	// alive nodes: 0 selects DefaultPatchScopeFraction, negative disables
	// witness patching entirely (events drop the caches — the measurement
	// baseline).
	PatchScopeFraction float64

	// Cached derived structures; nil when stale. Clustering and
	// Structures return the cached objects, so callers must treat the
	// results as read-only.
	cachedCl   *cluster.Result
	cachedConn *connector.Result
	cachedLDel *graph.Graph

	// Election witnesses backing the cached structures (nil whenever the
	// caches are), plus the dirty scope accumulated since the last
	// Structures call.
	wit          *connector.Witness
	ldwit        *ldel.Witness
	pending      map[int]bool
	pendingReloc map[int]bool
}

// invalidate drops every cached derived structure and its witnesses.
func (s *State) invalidate() {
	s.cachedCl = nil
	s.cachedConn = nil
	s.cachedLDel = nil
	s.wit = nil
	s.ldwit = nil
	s.pending = nil
	s.pendingReloc = nil
}

// New builds the initial state from a point set: the unit disk graph plus
// the lowest-ID MIS clustering, with every node alive.
func New(pts []geom.Point, radius float64) *State {
	full := udg.Build(pts, radius)
	cl := cluster.Centralized(full)
	s := &State{
		pts:    pts,
		radius: radius,
		full:   full,
		alive:  make([]bool, len(pts)),
		status: make([]cluster.Status, len(pts)),
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	copy(s.status, cl.Status)
	return s
}

// Alive reports whether node v is alive.
func (s *State) Alive(v int) bool { return v >= 0 && v < len(s.alive) && s.alive[v] }

// Status returns node v's current clustering role.
func (s *State) Status(v int) cluster.Status { return s.status[v] }

// AliveGraph returns the unit disk graph restricted to alive nodes (failed
// nodes are isolated).
func (s *State) AliveGraph() *graph.Graph {
	keep := make(map[int]bool, len(s.alive))
	for v, a := range s.alive {
		if a {
			keep[v] = true
		}
	}
	return s.full.Subgraph(keep)
}

// aliveNeighbors returns v's alive UDG neighbors.
func (s *State) aliveNeighbors(v int) []int {
	var out []int
	for _, u := range s.full.Neighbors(v) {
		if s.alive[u] {
			out = append(out, u)
		}
	}
	return out
}

func (s *State) hasAliveDominatorNeighbor(v int) bool {
	for _, u := range s.aliveNeighbors(v) {
		if s.status[u] == cluster.Dominator {
			return true
		}
	}
	return false
}

// Fail marks node v failed and repairs the clustering locally. It returns
// the IDs of nodes whose role changed (excluding v itself).
func (s *State) Fail(v int) ([]int, error) {
	if v < 0 || v >= len(s.alive) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, v)
	}
	if !s.alive[v] {
		return nil, fmt.Errorf("%w: node %d already failed", ErrDeadNode, v)
	}
	wasDominator := s.status[v] == cluster.Dominator
	s.alive[v] = false

	if !wasDominator {
		// Dominatees and connectors carry no coverage responsibility, so
		// no roles change. The clustering cache absorbs the failure in
		// place; the derived structures are repaired at the next
		// Structures call by re-running the elections v witnessed — a dead
		// losing candidate can unblock a larger-ID winner, so even a
		// non-backbone failure can move a distant-looking election
		// (DESIGN.md §14).
		s.patchFail(v)
		s.noteScope(v)
		return nil, nil
	}
	// A dominator failure changes coverage: rebuild the clustering cache
	// fresh (cheap — roles are maintained in s.status) and scope the
	// derived-structure patch to the failure and its promotions.
	s.cachedCl = nil

	// Only v's alive dominatee neighbors can become uncovered. Promote the
	// uncovered ones in ID order; each promotion may cover later ones.
	var uncovered []int
	for _, w := range s.aliveNeighbors(v) {
		if s.status[w] == cluster.Dominatee && !s.hasAliveDominatorNeighbor(w) {
			uncovered = append(uncovered, w)
		}
	}
	sort.Ints(uncovered)
	var changed []int
	for _, w := range uncovered {
		if s.hasAliveDominatorNeighbor(w) {
			continue // covered by an earlier promotion
		}
		s.status[w] = cluster.Dominator
		changed = append(changed, w)
	}
	s.RoleChanges += len(changed)
	s.noteScope(v)
	for _, w := range changed {
		s.noteScope(w)
	}
	return changed, nil
}

// Recover brings node v back. It rejoins as a dominatee when an alive
// neighbor dominates it, otherwise as a dominator. It returns the IDs of
// nodes whose role changed (v itself included when its role differs from
// its pre-failure one; demotions of other dominators never happen, keeping
// the repair strictly local at the cost of a possibly denser-than-minimal
// dominator set).
func (s *State) Recover(v int) ([]int, error) {
	if v < 0 || v >= len(s.alive) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, v)
	}
	if s.alive[v] {
		return nil, fmt.Errorf("%w: node %d already alive", ErrDeadNode, v)
	}
	s.alive[v] = true
	old := s.status[v]
	if s.hasAliveDominatorNeighbor(v) {
		s.status[v] = cluster.Dominatee
	} else {
		s.status[v] = cluster.Dominator
	}
	if s.status[v] != old {
		// v's own role changed: rebuild the clustering cache fresh and
		// scope the derived-structure patch to v's two-hop ball — every
		// election v's new role can reach is re-run there.
		s.cachedCl = nil
		s.noteScope(v)
		s.RoleChanges++
		return []int{v}, nil
	}
	if s.status[v] == cluster.Dominator {
		// A dominator rejoining changes no role but reshapes the backbone
		// (it must be reconnected by fresh connectors) — same scoped patch.
		s.cachedCl = nil
		s.noteScope(v)
	} else {
		// A covered dominatee rejoining: the clustering cache is patched
		// exactly (the local formulas equal the full derivation), and the
		// derived structures are patched at the next Structures call by
		// re-running every election within v's witness scope — the
		// rejoining candidate can only change elections it can reach.
		s.patchRecover(v)
		s.noteScope(v)
	}
	return nil, nil
}

// patchFail updates the cached clustering for the failure of a
// role-neutral node v: v loses its coverage links and drops out of the
// two-hop views of its neighbors. The derived structures are repaired by
// the witness patch at the next Structures call.
func (s *State) patchFail(v int) {
	if s.cachedCl == nil {
		return
	}
	cl := s.cachedCl
	cl.Status[v] = cluster.Dominatee // failed-node convention of Clustering
	cl.DominatorsOf[v] = nil
	cl.TwoHopDominators[v] = nil
	for _, x := range s.aliveNeighbors(v) {
		cl.TwoHopDominators[x] = s.twoHopOf(cl, x)
	}
}

// patchRecover updates the cached clustering for a node rejoining as a
// covered dominatee with its old role: it regains its dominator links and
// reappears in its neighbors' two-hop views. With no clustering cache to
// patch there is nothing to do — Clustering re-derives the canonical
// result from the maintained roles, and the derived structures are
// repaired against it by the witness patch at the next Structures call.
func (s *State) patchRecover(v int) {
	if s.cachedCl == nil {
		return
	}
	cl := s.cachedCl
	cl.Status[v] = cluster.Dominatee
	var doms []int
	for _, u := range s.aliveNeighbors(v) {
		if s.status[u] == cluster.Dominator {
			doms = append(doms, u)
		}
	}
	sort.Ints(doms)
	cl.DominatorsOf[v] = doms
	cl.TwoHopDominators[v] = s.twoHopOf(cl, v)
	for _, x := range s.aliveNeighbors(v) {
		cl.TwoHopDominators[x] = s.twoHopOf(cl, x)
	}
}

// twoHopOf derives node x's two-hop dominator list from the maintained
// roles — the same formula Clustering uses, localized to one node.
func (s *State) twoHopOf(cl *cluster.Result, x int) []int {
	two := make(map[int]bool)
	for _, w := range s.aliveNeighbors(x) {
		for _, u := range cl.DominatorsOf[w] {
			if u != x && !s.full.HasEdge(u, x) {
				two[u] = true
			}
		}
	}
	if len(two) == 0 {
		return nil
	}
	list := make([]int, 0, len(two))
	for u := range two {
		list = append(list, u)
	}
	sort.Ints(list)
	return list
}

// Clustering derives the full cluster.Result (dominator lists, two-hop
// dominator lists) from the maintained roles over the alive subgraph
// (cluster.Derive; a failed node is an isolated dominatee with no links).
// The result is cached — and patched in place by role-neutral events — so
// callers must treat it as read-only.
func (s *State) Clustering() *cluster.Result {
	if s.cachedCl != nil {
		return s.cachedCl
	}
	isDom := make([]bool, len(s.status))
	for v := range isDom {
		isDom[v] = s.alive[v] && s.status[v] == cluster.Dominator
	}
	s.cachedCl = cluster.Derive(s.AliveGraph(), isDom)
	return s.cachedCl
}

// Structures returns the derived backbone structures (connectors, CDS
// family, planar LDel) for the maintained roles. With witness patching
// enabled (the default), events since the last call accumulate a dirty
// scope and this call re-runs only the elections inside it, splicing the
// results into the cached structures — bit-identical to a from-scratch
// rebuild, counted in Patches. The full rebuild runs when there are no
// caches yet, when the scope exceeds PatchScopeFraction of the alive
// nodes (counted in PatchFallbacks), or when patching is disabled;
// it counts in Recomputes. Results are cached: treat them as read-only.
func (s *State) Structures() (*connector.Result, *graph.Graph, error) {
	cl := s.Clustering()
	if s.cachedConn != nil && s.cachedLDel != nil {
		if !s.hasPendingWork() {
			s.pendingReloc = nil // any relocations were dead-node geometry
			return s.cachedConn, s.cachedLDel, nil
		}
		if s.wit != nil && s.ldwit != nil && s.tryPatch(cl) {
			s.Patches++
			s.clearPending()
			return s.cachedConn, s.cachedLDel, nil
		}
	}
	conn, pldel, err := s.structures(cl)
	if err != nil {
		return nil, nil, err
	}
	s.clearPending()
	return conn, pldel, nil
}

// CheckInvariants verifies the maintained clustering: dominators form an
// independent set of the alive UDG and every alive non-dominator has an
// alive dominator neighbor. It returns nil when both hold.
func (s *State) CheckInvariants() error {
	for v, a := range s.alive {
		if !a {
			continue
		}
		switch s.status[v] {
		case cluster.Dominator:
			for _, u := range s.aliveNeighbors(v) {
				if s.status[u] == cluster.Dominator {
					return fmt.Errorf("maintain: adjacent dominators %d, %d", v, u)
				}
			}
		default:
			if !s.hasAliveDominatorNeighbor(v) {
				return fmt.Errorf("maintain: node %d uncovered", v)
			}
		}
	}
	return nil
}
