package maintain

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"geospanner/internal/cluster"
	"geospanner/internal/connector"
	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/udg"
)

func newState(t *testing.T, seed int64, n int) *State {
	t.Helper()
	inst, err := udg.ConnectedInstance(seed, n, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	return New(inst.Points, inst.Radius)
}

func TestNewMatchesCentralizedClustering(t *testing.T) {
	s := newState(t, 1, 60)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Initially, the maintained clustering equals the lowest-ID MIS.
	want := cluster.Centralized(s.AliveGraph())
	for v := range want.Status {
		if s.Status(v) != want.Status[v] {
			t.Fatalf("node %d: status %v, want %v", v, s.Status(v), want.Status[v])
		}
	}
}

func TestFailDominateeNoChurn(t *testing.T) {
	s := newState(t, 2, 60)
	var victim int = -1
	for v := 0; v < 60; v++ {
		if s.Status(v) == cluster.Dominatee {
			victim = v
			break
		}
	}
	if victim == -1 {
		t.Fatal("no dominatee found")
	}
	changed, err := s.Fail(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 {
		t.Fatalf("dominatee failure changed roles: %v", changed)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailDominatorRepairsCoverage(t *testing.T) {
	s := newState(t, 3, 80)
	// Find a dominator with at least one dominatee depending on it alone.
	g := s.AliveGraph()
	for v := 0; v < g.N(); v++ {
		if s.Status(v) != cluster.Dominator {
			continue
		}
		changed, err := s.Fail(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after failing dominator %d: %v (changed %v)", v, err, changed)
		}
		// Promotions touch only old neighbors of v.
		for _, w := range changed {
			if !g.HasEdge(v, w) {
				t.Fatalf("promotion of non-neighbor %d after failing %d", w, v)
			}
			if s.Status(w) != cluster.Dominator {
				t.Fatalf("changed node %d is not a dominator", w)
			}
		}
		return
	}
	t.Fatal("no dominator found")
}

func TestFailRecoverErrors(t *testing.T) {
	s := newState(t, 4, 30)
	if _, err := s.Fail(-1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Recover(5); !errors.Is(err, ErrDeadNode) {
		t.Fatalf("recover alive: err = %v", err)
	}
	if _, err := s.Fail(5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fail(5); !errors.Is(err, ErrDeadNode) {
		t.Fatalf("double fail: err = %v", err)
	}
	if _, err := s.Recover(5); err != nil {
		t.Fatal(err)
	}
	if !s.Alive(5) {
		t.Fatal("node not alive after recovery")
	}
}

// TestChurnSequenceInvariants runs long random failure/recovery sequences
// and checks the clustering invariants after every event, plus the derived
// structures at checkpoints.
func TestChurnSequenceInvariants(t *testing.T) {
	s := newState(t, 5, 80)
	r := rand.New(rand.NewSource(9))
	dead := map[int]bool{}
	for step := 0; step < 200; step++ {
		v := r.Intn(80)
		var err error
		if dead[v] {
			_, err = s.Recover(v)
			delete(dead, v)
		} else {
			// Keep a quorum alive so the graph stays interesting.
			if len(dead) > 20 {
				continue
			}
			_, err = s.Fail(v)
			dead[v] = true
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%50 == 49 {
			g := s.AliveGraph()
			var aliveNodes []int
			for v := 0; v < 80; v++ {
				if s.Alive(v) {
					aliveNodes = append(aliveNodes, v)
				}
			}
			if !g.SubsetConnected(aliveNodes) {
				continue // survivors disconnected: backbone guarantees suspended
			}
			conn, pldel, err := s.Structures()
			if err != nil {
				t.Fatal(err)
			}
			if !conn.CDS.SubsetConnected(conn.Backbone) {
				t.Fatalf("step %d: maintained CDS disconnected", step)
			}
			if !pldel.IsPlanarEmbedding() {
				t.Fatalf("step %d: maintained backbone not planar", step)
			}
		}
	}
	if s.RoleChanges == 0 {
		t.Fatal("expected some role churn over 200 events")
	}
}

// TestChurnIsLocal: across many dominator failures, the number of role
// changes per event stays bounded by the failed node's degree (the
// locality claim).
func TestChurnIsLocal(t *testing.T) {
	s := newState(t, 6, 100)
	g := s.AliveGraph()
	events, totalChurn := 0, 0
	for v := 0; v < 100 && events < 15; v++ {
		if s.Status(v) != cluster.Dominator || !s.Alive(v) {
			continue
		}
		deg := g.Degree(v)
		changed, err := s.Fail(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(changed) > deg {
			t.Fatalf("failing %d (degree %d) changed %d roles", v, deg, len(changed))
		}
		events++
		totalChurn += len(changed)
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if events == 0 {
		t.Fatal("no dominators failed")
	}
	t.Logf("%d dominator failures, %d total promotions", events, totalChurn)
}

// TestRecoverAsDominatorWhenUncovered: a node recovering into a spot with
// no alive dominator in range must claim dominator status itself. Uses a
// deterministic two-node network: 0 — 1.
func TestRecoverAsDominatorWhenUncovered(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0)}
	s := New(pts, 1)
	if s.Status(0) != cluster.Dominator || s.Status(1) != cluster.Dominatee {
		t.Fatalf("initial roles: %v %v", s.Status(0), s.Status(1))
	}
	// Fail the dominator: node 1 is promoted.
	changed, err := s.Fail(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || changed[0] != 1 || s.Status(1) != cluster.Dominator {
		t.Fatalf("promotion failed: changed=%v status=%v", changed, s.Status(1))
	}
	// Fail node 1 too, then recover node 0 into an empty neighborhood.
	if _, err := s.Fail(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(0); err != nil {
		t.Fatal(err)
	}
	if s.Status(0) != cluster.Dominator {
		t.Fatal("recovered node with no dominator in range should be a dominator")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Recover node 1: a dominator (node 0) is in range, so it rejoins as
	// a dominatee even though it held dominator status while node 0 was
	// down.
	if _, err := s.Recover(1); err != nil {
		t.Fatal(err)
	}
	if s.Status(1) != cluster.Dominatee {
		t.Fatalf("node 1 rejoined as %v, want dominatee", s.Status(1))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStructuresCachedAcrossNeutralEvents: failing a non-backbone
// dominatee must not trigger a backbone recomputation — the witness patch
// splices the cached structures — and with an uncapped patch scope even a
// dominator failure is serviced by patching.
func TestStructuresCachedAcrossNeutralEvents(t *testing.T) {
	s := newState(t, 7, 80)
	s.PatchScopeFraction = 1 // dense small instance: let every patch run
	conn, _, err := s.Structures()
	if err != nil {
		t.Fatal(err)
	}
	if s.Recomputes != 1 {
		t.Fatalf("Recomputes = %d after first derivation, want 1", s.Recomputes)
	}

	// Fail a dominatee outside the backbone: no recompute.
	victim := -1
	for v := 0; v < 80; v++ {
		if s.Status(v) == cluster.Dominatee && !conn.InBackbone[v] {
			victim = v
			break
		}
	}
	if victim == -1 {
		t.Fatal("no non-backbone dominatee found")
	}
	if _, err := s.Fail(victim); err != nil {
		t.Fatal(err)
	}
	conn2, pldel2, err := s.Structures()
	if err != nil {
		t.Fatal(err)
	}
	if s.Recomputes != 1 || s.Patches != 1 {
		t.Fatalf("Recomputes = %d, Patches = %d after neutral event, want 1, 1 (cache should be patched, not rebuilt)", s.Recomputes, s.Patches)
	}
	if conn2.CDSPrime.Degree(victim) != 0 || conn2.ICDSPrime.Degree(victim) != 0 {
		t.Fatal("patched primed graphs still link the failed dominatee")
	}
	if !conn2.CDS.SubsetConnected(conn2.Backbone) {
		t.Fatal("patched CDS disconnected")
	}
	if !pldel2.IsPlanarEmbedding() {
		t.Fatal("patched backbone not planar")
	}

	// Fail a dominator: roles change, but the witness patch still services
	// the repair — only the elections inside the failure's two-hop ball
	// re-run.
	dom := -1
	for v := 0; v < 80; v++ {
		if s.Alive(v) && s.Status(v) == cluster.Dominator {
			dom = v
			break
		}
	}
	if dom == -1 {
		t.Fatal("no dominator found")
	}
	if _, err := s.Fail(dom); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Structures(); err != nil {
		t.Fatal(err)
	}
	if s.Recomputes != 1 || s.Patches != 2 {
		t.Fatalf("Recomputes = %d, Patches = %d after dominator failure, want 1, 2", s.Recomputes, s.Patches)
	}

	// A vanishingly small scope cap forces the fallback-to-rebuild path.
	s.PatchScopeFraction = 1e-9
	victim2 := -1
	for v := 0; v < 80; v++ {
		if s.Alive(v) && s.Status(v) == cluster.Dominatee {
			victim2 = v
			break
		}
	}
	if _, err := s.Fail(victim2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Structures(); err != nil {
		t.Fatal(err)
	}
	if s.Recomputes != 2 || s.PatchFallbacks != 1 {
		t.Fatalf("Recomputes = %d, PatchFallbacks = %d after capped patch, want 2, 1", s.Recomputes, s.PatchFallbacks)
	}
}

// TestPatchedClusteringMatchesFresh: events only grow the dirty scope,
// and the next call re-derives the cached clustering over it in place.
// Multi-event batches — alive and dead moves, dominatee and dominator
// failures, rejoins — must leave it equal to a full cluster.Derive from
// the maintained roles, on a cache primed by Clustering alone and on one
// primed by Structures. With the scope uncapped the cached Result is
// never replaced, dominator failures included.
func TestPatchedClusteringMatchesFresh(t *testing.T) {
	for _, primed := range []string{"clustering", "structures"} {
		t.Run(primed, func(t *testing.T) {
			s := newState(t, 8, 80)
			s.PatchScopeFraction = 1
			if primed == "structures" {
				if _, _, err := s.Structures(); err != nil {
					t.Fatal(err)
				}
			}
			cached := s.Clustering()
			rng := rand.New(rand.NewSource(4))
			dead, domFails, moves := 0, 0, 0
			for batch := 0; batch < 40; batch++ {
				for i := 0; i < 2+rng.Intn(4); i++ {
					v := rng.Intn(s.N())
					to := s.Positions()[v]
					to.X = min(max(to.X+(rng.Float64()*2-1)*30, 0), 200)
					to.Y = min(max(to.Y+(rng.Float64()*2-1)*30, 0), 200)
					var err error
					switch {
					case rng.Intn(3) == 0:
						_, err = s.Move(v, to)
						moves++
					case !s.Alive(v):
						_, err = s.Recover(v)
						dead--
					case dead < 15:
						if s.Status(v) == cluster.Dominator {
							domFails++
						}
						_, err = s.Fail(v)
						dead++
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				got := s.Clustering()
				if got != cached {
					t.Fatalf("batch %d: the cached clustering was replaced, not patched", batch)
				}
				alive, status := s.Roles()
				isDom := make([]bool, len(status))
				for v := range isDom {
					isDom[v] = alive[v] && status[v] == cluster.Dominator
				}
				if want := cluster.Derive(s.AliveGraph(), isDom); !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d: patched clustering diverged from a fresh derivation", batch)
				}
			}
			if domFails == 0 || moves == 0 {
				t.Fatalf("%d dominator failures, %d moves: the sweep is vacuous", domFails, moves)
			}
			if primed == "structures" {
				conn, pldel, err := s.Structures()
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesRebuild(t, s, conn, pldel)
				if s.Recomputes != 1 {
					t.Fatalf("Recomputes = %d, want 1 (every batch patched)", s.Recomputes)
				}
			}
		})
	}
}

// TestConnectorFailurePatchesCache: failing a connector changes no
// clustering role; the backbone reroutes through a scoped re-election,
// not a full recompute, and the patched structures match a from-scratch
// rebuild exactly.
func TestConnectorFailurePatchesCache(t *testing.T) {
	s := newState(t, 9, 80)
	s.PatchScopeFraction = 1
	conn, _, err := s.Structures()
	if err != nil {
		t.Fatal(err)
	}
	connector := -1
	for _, v := range conn.Connectors {
		if s.Status(v) != cluster.Dominator {
			connector = v
			break
		}
	}
	if connector == -1 {
		t.Skip("no non-dominator connector in this instance")
	}
	changed, err := s.Fail(connector)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 {
		t.Fatalf("connector failure changed roles: %v", changed)
	}
	conn2, pldel2, err := s.Structures()
	if err != nil {
		t.Fatal(err)
	}
	if s.Recomputes != 1 || s.Patches != 1 {
		t.Fatalf("Recomputes = %d, Patches = %d after connector failure, want 1, 1", s.Recomputes, s.Patches)
	}
	assertMatchesRebuild(t, s, conn2, pldel2)
}

// assertMatchesRebuild compares the maintained structures against a
// from-scratch rebuild of the same roles — the bit-identical contract of
// witness patching.
func assertMatchesRebuild(t *testing.T, s *State, conn *connector.Result, pldel *graph.Graph) {
	t.Helper()
	alive, status := s.Roles()
	ref, err := FromRoles(s.Positions(), s.Radius(), alive, status)
	if err != nil {
		t.Fatalf("FromRoles: %v", err)
	}
	refConn, refPldel, err := ref.Structures()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if !refConn.CDS.Equal(conn.CDS) {
		t.Fatal("patched CDS diverges from rebuild")
	}
	if !refConn.CDSPrime.Equal(conn.CDSPrime) {
		t.Fatal("patched CDS' diverges from rebuild")
	}
	if !refConn.ICDS.Equal(conn.ICDS) {
		t.Fatal("patched ICDS diverges from rebuild")
	}
	if !refConn.ICDSPrime.Equal(conn.ICDSPrime) {
		t.Fatal("patched ICDS' diverges from rebuild")
	}
	if !reflect.DeepEqual(refConn.InBackbone, conn.InBackbone) {
		t.Fatal("patched backbone membership diverges from rebuild")
	}
	if !reflect.DeepEqual(refConn.Connectors, conn.Connectors) {
		t.Fatal("patched connector list diverges from rebuild")
	}
	if !refPldel.Equal(pldel) {
		t.Fatal("patched planarization diverges from rebuild")
	}
}
