package maintain

import (
	"math/rand"
	"reflect"
	"testing"

	"geospanner/internal/cluster"
	"geospanner/internal/geom"
)

// randomBatch generates k random churn events against a mirror of the
// state, mixing moves, crashes, joins, leaves — and deliberate stream
// noise (events addressed to nodes in the wrong state), which ApplyBatch
// must reject as strict no-ops. It returns the events plus the exact
// applied/rejected split the mirror predicts.
func randomBatch(rng *rand.Rand, s *State, region float64, k int) (events []Event, wantApplied, wantRejected int) {
	alive, _ := s.Roles()
	pts := s.Positions()
	jitter := func(p geom.Point) geom.Point {
		step := s.Radius() / 2
		x := p.X + (rng.Float64()*2-1)*step
		y := p.Y + (rng.Float64()*2-1)*step
		return geom.Point{X: min(max(x, 0), region), Y: min(max(y, 0), region)}
	}
	aliveCount := 0
	for _, a := range alive {
		if a {
			aliveCount++
		}
	}
	for i := 0; i < k; i++ {
		v := rng.Intn(len(alive))
		switch roll := rng.Intn(10); {
		case roll < 4: // move: alive (full churn) or dead (geometry-only) — always applied
			to := jitter(pts[v])
			pts[v] = to
			events = append(events, Event{Kind: EventMove, Node: v, To: to})
			wantApplied++
		case roll < 8: // toggle the node's liveness — always applied
			if alive[v] {
				if aliveCount <= 2 {
					i-- // keep the network populated; reroll
					continue
				}
				kind := EventLeave
				if roll%2 == 0 {
					kind = EventCrash
				}
				events = append(events, Event{Kind: kind, Node: v})
				alive[v] = false
				aliveCount--
			} else {
				events = append(events, Event{Kind: EventJoin, Node: v})
				alive[v] = true
				aliveCount++
			}
			wantApplied++
		case roll < 9: // stream noise: wrong-state event — must be rejected
			if alive[v] {
				events = append(events, Event{Kind: EventJoin, Node: v})
			} else {
				events = append(events, Event{Kind: EventCrash, Node: v})
			}
			wantRejected++
		default: // stream noise: out-of-range IDs — must be rejected
			events = append(events, Event{Kind: EventCrash, Node: len(alive) + rng.Intn(10)})
			wantRejected++
		}
	}
	return events, wantApplied, wantRejected
}

// TestChurnBatchesMatchRebuild is the churn property test: after every
// random batch, the incrementally maintained backbone equals the backbone
// rebuilt from scratch over the same roles (graph.Equal on CDS, ICDS and
// the planarization), and the degraded-mode invariants — planar, connected
// per component, subgraph of the live UDG — hold at every epoch.
func TestChurnBatchesMatchRebuild(t *testing.T) {
	cases := []struct {
		seed   int64
		n      int
		epochs int
	}{
		{seed: 11, n: 50, epochs: 10},
		{seed: 12, n: 120, epochs: 8},
		{seed: 13, n: 260, epochs: 6},
		{seed: 14, n: 500, epochs: 4},
	}
	for _, tc := range cases {
		s := newState(t, tc.seed, tc.n)
		rng := rand.New(rand.NewSource(tc.seed * 1000))
		for epoch := 1; epoch <= tc.epochs; epoch++ {
			k := 5 + rng.Intn(21)
			events, wantApplied, wantRejected := randomBatch(rng, s, 200, k)
			st := s.ApplyBatch(events, DefaultFallbackFraction)
			if st.Applied != wantApplied || st.Rejected != wantRejected {
				t.Fatalf("n=%d epoch %d: applied=%d rejected=%d, want %d/%d",
					tc.n, epoch, st.Applied, st.Rejected, wantApplied, wantRejected)
			}
			if st.Applied+st.Rejected != st.Events {
				t.Fatalf("n=%d epoch %d: applied+rejected=%d, events=%d",
					tc.n, epoch, st.Applied+st.Rejected, st.Events)
			}
			conn, pldel, err := s.Structures()
			if err != nil {
				t.Fatalf("n=%d epoch %d: structures: %v", tc.n, epoch, err)
			}
			if err := s.VerifyBackbone(conn, pldel); err != nil {
				t.Fatalf("n=%d epoch %d: %v", tc.n, epoch, err)
			}

			// Rebuild from scratch over the same roles and compare.
			alive, status := s.Roles()
			rb, err := FromRoles(s.Positions(), s.Radius(), alive, status)
			if err != nil {
				t.Fatalf("n=%d epoch %d: rebuild: %v", tc.n, epoch, err)
			}
			rconn, rpldel, err := rb.Structures()
			if err != nil {
				t.Fatalf("n=%d epoch %d: rebuild structures: %v", tc.n, epoch, err)
			}
			if !conn.CDS.Equal(rconn.CDS) {
				t.Fatalf("n=%d epoch %d: incremental CDS differs from rebuild", tc.n, epoch)
			}
			if !conn.ICDS.Equal(rconn.ICDS) {
				t.Fatalf("n=%d epoch %d: incremental ICDS differs from rebuild", tc.n, epoch)
			}
			if !pldel.Equal(rpldel) {
				t.Fatalf("n=%d epoch %d: incremental planarization differs from rebuild", tc.n, epoch)
			}
			if !reflect.DeepEqual(conn.InBackbone, rconn.InBackbone) {
				t.Fatalf("n=%d epoch %d: backbone membership differs from rebuild", tc.n, epoch)
			}
		}
	}
}

// TestRejectedEventsDoNotInvalidateCaches is the recompute-counter
// regression test: events addressed to nodes in the wrong state (a crash
// racing a leave, a duplicate join, an out-of-range ID) must be strict
// no-ops — rejected, role-preserving, and cache-preserving — so the
// recompute-ratio metric never counts a recomputation for an event that
// changed nothing.
func TestRejectedEventsDoNotInvalidateCaches(t *testing.T) {
	s := newState(t, 21, 80)
	// A negative scope cap rebuilds on every applied structural event —
	// the assertions below then count exactly which events touched the
	// caches, independent of patch-scope thresholds.
	s.PatchScopeFraction = -1
	if _, _, err := s.Structures(); err != nil {
		t.Fatal(err)
	}
	if s.Recomputes != 1 {
		t.Fatalf("Recomputes = %d after first derivation, want 1", s.Recomputes)
	}

	victim := 0 // crash a real node so there is a dead target for the noise
	st := s.ApplyBatch([]Event{{Kind: EventCrash, Node: victim}}, 0)
	if st.Applied != 1 || st.Rejected != 0 {
		t.Fatalf("crash batch: %+v", st)
	}
	conn, pldel, err := s.Structures()
	if err != nil {
		t.Fatal(err)
	}
	if s.Recomputes != 2 {
		t.Fatalf("Recomputes = %d after real crash, want 2", s.Recomputes)
	}

	noise := []Event{
		{Kind: EventCrash, Node: victim},  // already dead
		{Kind: EventLeave, Node: victim},  // already dead
		{Kind: EventJoin, Node: 1},        // already alive
		{Kind: EventCrash, Node: -1},      // out of range
		{Kind: EventLeave, Node: 1 << 20}, // out of range
	}
	st = s.ApplyBatch(noise, DefaultFallbackFraction)
	if st.Applied != 0 || st.Rejected != len(noise) || st.RoleChanges != 0 || st.Fallback {
		t.Fatalf("noise batch not fully rejected: %+v", st)
	}
	conn2, pldel2, err := s.Structures()
	if err != nil {
		t.Fatal(err)
	}
	if s.Recomputes != 2 {
		t.Fatalf("Recomputes = %d after rejected noise, want 2 (caches must stay warm)", s.Recomputes)
	}
	if conn2 != conn || pldel2 != pldel {
		t.Fatal("rejected events replaced the cached structures")
	}
}

// TestMoveAliveNodeMaintainsInvariants walks one node across the region in
// steps and checks the full invariant set after every move.
func TestMoveAliveNodeMaintainsInvariants(t *testing.T) {
	s := newState(t, 22, 60)
	rng := rand.New(rand.NewSource(220))
	v := 3
	for i := 0; i < 12; i++ {
		to := geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200}
		if _, err := s.Move(v, to); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		if got := s.Positions()[v]; got != to {
			t.Fatalf("move %d: position %v, want %v", i, got, to)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
}

// TestMoveDeadNodeIsGeometryOnly pins the dead-move contract: no role
// churn, no cache invalidation, but the slot keeps the new position so a
// later join comes up there.
func TestMoveDeadNodeIsGeometryOnly(t *testing.T) {
	s := newState(t, 23, 60)
	if _, err := s.Fail(5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Structures(); err != nil {
		t.Fatal(err)
	}
	rec := s.Recomputes
	to := geom.Point{X: 17, Y: 23}
	changed, err := s.Move(5, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 {
		t.Fatalf("dead move changed roles: %v", changed)
	}
	if _, _, err := s.Structures(); err != nil {
		t.Fatal(err)
	}
	if s.Recomputes != rec {
		t.Fatalf("dead move invalidated caches: Recomputes %d -> %d", rec, s.Recomputes)
	}
	if _, err := s.Recover(5); err != nil {
		t.Fatal(err)
	}
	if got := s.Positions()[5]; got != to {
		t.Fatalf("rejoined at %v, want %v", got, to)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFallbackRestoresCentralizedClustering drives churn with a fallback
// fraction of effectively zero, so the batch must re-cluster from scratch
// and land exactly on the lowest-ID MIS of the surviving graph.
func TestFallbackRestoresCentralizedClustering(t *testing.T) {
	s := newState(t, 24, 80)
	rng := rand.New(rand.NewSource(240))
	events, _, _ := randomBatch(rng, s, 200, 30)
	st := s.ApplyBatch(events, 1e-9)
	if !st.Fallback {
		t.Fatalf("expected fallback with tiny fraction: %+v", st)
	}
	want := cluster.Centralized(s.AliveGraph())
	for v := 0; v < s.N(); v++ {
		if !s.Alive(v) {
			continue
		}
		if s.Status(v) != want.Status[v] {
			t.Fatalf("node %d: status %v after fallback, want centralized %v", v, s.Status(v), want.Status[v])
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFromRolesRejectsInvalidInput covers the restore path's validation.
func TestFromRolesRejectsInvalidInput(t *testing.T) {
	s := newState(t, 25, 50)
	alive, status := s.Roles()
	if _, err := FromRoles(s.Positions(), s.Radius(), alive[:10], status); err == nil {
		t.Fatal("mismatched alive length accepted")
	}
	// Two adjacent dominators violate the MIS independence invariant.
	bad := append([]cluster.Status(nil), status...)
	for v := range bad {
		bad[v] = cluster.Dominator
	}
	if _, err := FromRoles(s.Positions(), s.Radius(), alive, bad); err == nil {
		t.Fatal("all-dominator roles accepted")
	}
}

// TestEventKindString pins the wire vocabulary of the event kinds.
func TestEventKindString(t *testing.T) {
	want := map[EventKind]string{
		EventJoin: "join", EventLeave: "leave", EventCrash: "crash", EventMove: "move",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if got := EventKind(99).String(); got != "EventKind(99)" {
		t.Fatalf("unknown kind renders %q", got)
	}
}
