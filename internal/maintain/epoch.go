// Epoch batching: the ingestion format of a long-lived topology service.
// A live network delivers churn as a stream of join/leave/move/crash
// events; the service cuts the stream into batches (epochs) and applies
// each batch to the maintained State in one step. ApplyBatch is the
// writer-side contract: events addressed to nodes in the wrong state, and
// joins or moves that would put two alive nodes at one position, are
// strict no-ops (they must not invalidate the cached structures, or the
// recompute-ratio metric the service reports would count phantom
// recomputations — the dedupe the regression tests pin), and a batch that
// churns too many roles falls back to a from-scratch re-clustering instead
// of compounding locally repaired, denser-than-minimal dominator sets.
package maintain

import (
	"fmt"
	"sort"

	"geospanner/internal/cluster"
	"geospanner/internal/connector"
	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/udg"
)

// EventKind enumerates the churn events a live topology service ingests.
type EventKind uint8

// The churn event kinds. Leave and Crash are mechanically identical to the
// State (the node is gone either way); they are kept distinct because a
// trace that cannot tell graceful departures from failures is useless to
// an operator.
const (
	// EventJoin brings a failed (or never-started) node slot up at its
	// current position.
	EventJoin EventKind = iota
	// EventLeave takes an alive node down gracefully.
	EventLeave
	// EventCrash takes an alive node down abruptly.
	EventCrash
	// EventMove relocates a node to Event.To, alive or not.
	EventMove

	// NumEventKinds is the number of event kinds — the length of
	// BatchStats.ByKind and of any per-kind counter array built over it.
	NumEventKinds = int(EventMove) + 1
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventCrash:
		return "crash"
	case EventMove:
		return "move"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one churn event addressed to a node slot.
type Event struct {
	Kind EventKind
	Node int
	// To is the destination position of an EventMove; ignored otherwise.
	To geom.Point
}

// KindCount is the per-event-kind slice of one batch.
type KindCount struct {
	// Applied counts events of this kind that changed the state.
	Applied int
	// Rejected counts strict no-ops of this kind.
	Rejected int
}

// BatchStats summarizes one ApplyBatch call — the per-epoch numbers a
// topology service reports.
type BatchStats struct {
	// Events is the batch size; Applied + Rejected == Events.
	Events int
	// Applied counts events that changed the state.
	Applied int
	// Rejected counts strict no-ops: a leave/crash addressed to an
	// already-dead node, a join addressed to an alive one, a join or an
	// alive node's move onto another alive node's position (ErrOccupied),
	// or an out-of-range node ID. Rejected events touch neither the roles
	// nor the cached structures.
	Rejected int
	// ByKind slices Applied/Rejected per event kind, indexed by EventKind
	// (join, leave, crash, move). Out-of-range node IDs and unknown kinds
	// count only in Rejected.
	ByKind [NumEventKinds]KindCount
	// RoleChanges totals the nodes whose clustering role changed across
	// the batch's applied events (the locality measure).
	RoleChanges int
	// Moves counts applied move events.
	Moves int
	// Fallback reports that the batch churned more than the fallback
	// fraction of alive nodes and the roles were re-clustered from
	// scratch.
	Fallback bool
}

// DefaultFallbackFraction is the role-churn fraction above which ApplyBatch
// abandons local repair for a batch and re-clusters from scratch. Local
// repair never demotes a dominator, so under sustained heavy churn the
// dominator set only densifies; re-clustering when a single batch touches
// a quarter of the network restores the lowest-ID MIS baseline.
const DefaultFallbackFraction = 0.25

// ApplyBatch applies one epoch's events in order and returns the batch
// summary. Events addressed to nodes in the wrong state, and joins and
// alive moves that Recover or Move refuses with ErrOccupied, are counted
// as Rejected and are complete no-ops, so a log replays them the same
// way. fallbackFrac is the role-churn fraction that triggers the
// from-scratch re-clustering (<= 0 disables the fallback;
// DefaultFallbackFraction is the service default).
func (s *State) ApplyBatch(events []Event, fallbackFrac float64) BatchStats {
	st := BatchStats{Events: len(events)}
	for _, e := range events {
		if e.Node < 0 || e.Node >= len(s.alive) {
			st.Rejected++
			continue
		}
		switch e.Kind {
		case EventJoin:
			if s.alive[e.Node] {
				// Guard before calling Recover: the error path is a no-op
				// too, but the batch loop must never construct errors for
				// expected stream noise.
				st.Rejected++
				st.ByKind[e.Kind].Rejected++
				continue
			}
			changed, err := s.Recover(e.Node)
			if err != nil {
				st.Rejected++
				st.ByKind[e.Kind].Rejected++
				continue
			}
			st.Applied++
			st.ByKind[e.Kind].Applied++
			st.RoleChanges += len(changed)
		case EventLeave, EventCrash:
			if !s.alive[e.Node] {
				// An already-dead target is stream noise (a crash report
				// racing a graceful leave). It must not reach Fail, and —
				// the dedupe contract — must not invalidate caches: the
				// next Structures call would otherwise count a recompute
				// for an event that changed nothing.
				st.Rejected++
				st.ByKind[e.Kind].Rejected++
				continue
			}
			changed, err := s.Fail(e.Node)
			if err != nil {
				st.Rejected++
				st.ByKind[e.Kind].Rejected++
				continue
			}
			st.Applied++
			st.ByKind[e.Kind].Applied++
			st.RoleChanges += len(changed)
		case EventMove:
			changed, err := s.Move(e.Node, e.To)
			if err != nil {
				st.Rejected++
				st.ByKind[e.Kind].Rejected++
				continue
			}
			st.Applied++
			st.ByKind[e.Kind].Applied++
			st.Moves++
			st.RoleChanges += len(changed)
		default:
			st.Rejected++
		}
	}
	if alive := s.AliveCount(); fallbackFrac > 0 && alive > 0 &&
		float64(st.RoleChanges) > fallbackFrac*float64(alive) {
		s.RebuildRoles()
		st.Fallback = true
	}
	return st
}

// Move relocates node v to position to. A dead node's move is a pure
// geometry update (its slot keeps the new position for a later join,
// which Recover refuses while another alive node sits there). An alive
// node's move is refused with ErrOccupied, before any state changes, when
// another alive node sits at to. Otherwise the node leaves at its old
// position (coverage repaired exactly as for a failure), relocates, and
// rejoins at the new one, so every clustering invariant holds by
// construction. It returns the nodes whose role changed, v included when
// its own role differs after the move.
func (s *State) Move(v int, to geom.Point) ([]int, error) {
	if v < 0 || v >= len(s.alive) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, v)
	}
	if !s.alive[v] {
		s.relocate(v, to)
		return nil, nil
	}
	if err := s.occupied(v, to); err != nil {
		return nil, err
	}
	changed, err := s.Fail(v)
	if err != nil {
		return nil, err
	}
	s.relocate(v, to)
	more, err := s.Recover(v)
	if err != nil {
		return changed, err
	}
	return mergeSorted(changed, more), nil
}

// relocate moves the dead node v to position to; it has no edges, and
// its rejoin (Recover) links it at the new position.
func (s *State) relocate(v int, to geom.Point) {
	s.pts[v] = to
	s.noteReloc(v)
}

// mergeSorted merges two sorted ID lists, deduplicating.
func mergeSorted(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	out := append(a, b...)
	sort.Ints(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// RebuildRoles re-clusters the alive subgraph from scratch with the
// lowest-ID MIS and installs the fresh roles, dropping every cached
// structure. It returns the number of nodes whose role changed (also added
// to RoleChanges). This is the fallback of ApplyBatch and the recovery
// path after local repair has densified the dominator set.
func (s *State) RebuildRoles() int {
	cl := cluster.Centralized(s.live)
	changed := 0
	for v, a := range s.alive {
		if !a {
			continue
		}
		if s.status[v] != cl.Status[v] {
			changed++
		}
		s.status[v] = cl.Status[v]
	}
	s.RoleChanges += changed
	s.invalidate()
	return changed
}

// FromRoles reconstructs a State from an externally recorded role
// assignment: the from-scratch rebuild the property tests compare the
// incrementally maintained backbone against, and the restore path of a
// service restarting from a persisted snapshot. The positions slice is
// retained; alive and status are copied. It fails when the state breaks
// CheckInvariants: roles that violate the clustering invariants on the
// unit disk graph over pts, or two alive nodes at one position.
func FromRoles(pts []geom.Point, radius float64, alive []bool, status []cluster.Status) (*State, error) {
	if len(alive) != len(pts) || len(status) != len(pts) {
		return nil, fmt.Errorf("maintain: FromRoles: %d points, %d alive, %d status", len(pts), len(alive), len(status))
	}
	s := &State{
		pts:    pts,
		radius: radius,
		live:   udg.Build(pts, radius),
		alive:  append([]bool(nil), alive...),
		status: append([]cluster.Status(nil), status...),
	}
	for v, a := range alive {
		if !a {
			s.unlink(v)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("maintain: FromRoles: %w", err)
	}
	return s, nil
}

// N returns the number of node slots, alive or dead.
func (s *State) N() int { return len(s.pts) }

// AliveCount returns the number of alive nodes.
func (s *State) AliveCount() int {
	n := 0
	for _, a := range s.alive {
		if a {
			n++
		}
	}
	return n
}

// Radius returns the transmission radius.
func (s *State) Radius() float64 { return s.radius }

// Positions returns a copy of the current node positions (moves mutate the
// State's own slice, so snapshots must copy).
func (s *State) Positions() []geom.Point {
	out := make([]geom.Point, len(s.pts))
	copy(out, s.pts)
	return out
}

// Roles returns copies of the alive flags and clustering roles — the
// snapshot FromRoles restores from.
func (s *State) Roles() ([]bool, []cluster.Status) {
	return append([]bool(nil), s.alive...), append([]cluster.Status(nil), s.status...)
}

// VerifyBackbone checks the degraded-mode invariants (the VerifyPartial
// contract of core) on maintained structures: clustering invariants hold,
// every backbone edge connects alive nodes over a live UDG edge
// (subgraph), the planarization has no crossing edges (planar), and within
// every connected component of the alive UDG both the CDS and the
// planarization connect the component's backbone members (connected per
// component). A nil error means every check passed.
func (s *State) VerifyBackbone(conn *connector.Result, pldel *graph.Graph) error {
	if err := s.CheckInvariants(); err != nil {
		return err
	}
	for name, g := range map[string]*graph.Graph{"CDS": conn.CDS, "ICDS": conn.ICDS, "LDel(ICDS)": pldel} {
		for _, e := range g.Edges() {
			if !s.alive[e.U] || !s.alive[e.V] {
				return fmt.Errorf("maintain: %s edge %v touches a dead node", name, e)
			}
			if !s.live.HasEdge(e.U, e.V) {
				return fmt.Errorf("maintain: %s edge %v is not a live UDG edge", name, e)
			}
		}
	}
	if !pldel.IsPlanarEmbedding() {
		return fmt.Errorf("maintain: planarized backbone has crossing edges")
	}
	for _, comp := range s.live.Components() {
		if len(comp) == 1 && !s.alive[comp[0]] {
			continue // dead nodes are isolated singletons of the alive graph
		}
		var backbone []int
		for _, v := range comp {
			if conn.InBackbone[v] {
				backbone = append(backbone, v)
			}
		}
		if !conn.CDS.SubsetConnected(backbone) {
			return fmt.Errorf("maintain: CDS does not connect the backbone of the component at node %d", comp[0])
		}
		if !pldel.SubsetConnected(backbone) {
			return fmt.Errorf("maintain: planarized backbone disconnected in the component at node %d", comp[0])
		}
	}
	return nil
}
