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
// The derived state — the clustering's dominator lists, the connectors and
// induced graphs, the LDel planarization — is brought current by one
// incremental mechanism: each event grows a dirty scope, and the next
// Clustering or Structures call widens it by one hop and hands it to each
// layer's own update (cluster's Rederive, connector's and ldel's
// Witness.Patch), which re-run only the decisions inside it. A scope past
// the cap takes the from-scratch path instead. Either way the result is
// bit-identical to a rebuild from the repaired roles; in a deployment the
// same locality makes it a constant-message local protocol per the
// paper's bounds. Tests assert that every invariant (independence,
// domination, CDS connectivity, planarity, spanning) survives arbitrary
// failure/recovery sequences.
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
	// Structures. Structural events accumulate a dirty scope and, under
	// the scope cap, Structures splices a patch into the cached structures
	// instead — counted in Patches, not here — so recompute_ratio
	// (Recomputes per epoch) stays well below 1.0 under churn.
	Recomputes int

	// Patches counts the times cached structures absorbed the accumulated
	// events by witness-scoped patching (bit-identical to a rebuild) — at
	// the first Structures or Clustering call after them.
	Patches int

	// PatchFallbacks counts patches abandoned because the dirty scope
	// exceeded PatchScopeFraction of the alive nodes; the Structures call
	// that follows also counts in Recomputes.
	PatchFallbacks int

	// PatchScopeFraction bounds the witness patch scope as a fraction of
	// alive nodes: 0 selects DefaultPatchScopeFraction, negative always
	// rebuilds from scratch (the measurement baseline).
	PatchScopeFraction float64

	// Cached derived structures; nil when not built yet or dropped. A
	// cached clustering may stand alone; cached structures always come
	// with their clustering. Clustering and Structures return the cached
	// objects, so callers must treat the results as read-only.
	cachedCl   *cluster.Result
	cachedConn *connector.Result
	cachedLDel *graph.Graph

	// Election witnesses backing the cached structures (nil whenever the
	// structures are), plus the dirty scope seeds and relocated nodes
	// accumulated since the caches were last brought current.
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
	s.noteScope(v)
	if !wasDominator {
		// Dominatees and connectors carry no coverage responsibility, so
		// no roles change. The scope still matters: a dead losing
		// candidate can unblock a larger-ID winner, so even a non-backbone
		// failure can move a distant-looking election (DESIGN.md §14).
		return nil, nil
	}
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
	// Every rejoin is scoped the same way: v's new role (or, as a
	// dominator, its need for fresh connectors) and its candidacy can only
	// change decisions within reach of v.
	s.noteScope(v)
	if s.status[v] != old {
		s.RoleChanges++
		return []int{v}, nil
	}
	return nil, nil
}

// isDominator reports whether v is an alive dominator.
func (s *State) isDominator(v int) bool {
	return s.alive[v] && s.status[v] == cluster.Dominator
}

// dominators flags every alive dominator.
func (s *State) dominators() []bool {
	isDom := make([]bool, len(s.status))
	for v := range isDom {
		isDom[v] = s.isDominator(v)
	}
	return isDom
}

// Clustering derives the full cluster.Result (dominator lists, two-hop
// dominator lists) from the maintained roles over the alive subgraph
// (cluster.Derive; a failed node is an isolated dominatee with no links).
// The result is cached and brought current in place by the next call
// after events (see refresh), so callers must treat it as read-only.
func (s *State) Clustering() *cluster.Result {
	s.refresh()
	if s.cachedCl == nil {
		s.cachedCl = cluster.Derive(s.AliveGraph(), s.dominators())
	}
	return s.cachedCl
}

// Structures returns the derived backbone structures (connectors, CDS
// family, planar LDel) for the maintained roles. Events since the last
// call accumulate a dirty scope, and this call re-runs only the decisions
// inside it, splicing the results into the cached structures —
// bit-identical to a from-scratch rebuild, counted in Patches. The full
// rebuild runs when there are no caches yet or when the scope exceeds
// PatchScopeFraction of the alive nodes (counted in PatchFallbacks); it
// counts in Recomputes. Results are cached: treat them as read-only.
func (s *State) Structures() (*connector.Result, *graph.Graph, error) {
	s.refresh()
	if s.cachedConn != nil {
		return s.cachedConn, s.cachedLDel, nil
	}
	return s.rebuild()
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
