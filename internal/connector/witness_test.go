package connector

import (
	"math/rand"
	"slices"
	"testing"

	"geospanner/internal/cluster"
	"geospanner/internal/udg"
)

// TestCentralizedWitnessMatchesCentralized pins the witness construction
// to the monolithic election: same Result, graph for graph, across seeded
// instances.
func TestCentralizedWitnessMatchesCentralized(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		inst, err := udg.ConnectedInstance(seed, 140, 200, 45, 0)
		if err != nil {
			t.Fatalf("instance: %v", err)
		}
		g := inst.UDG
		cl := cluster.Centralized(g)
		want := Centralized(g, cl)
		got, wit := CentralizedWitness(g, cl)
		if wit == nil || len(wit.records) == 0 {
			t.Fatalf("seed %d: empty witness", seed)
		}
		assertResultsEqual(t, seed, want, got)
	}
}

func assertResultsEqual(t *testing.T, seed int64, want, got *Result) {
	t.Helper()
	if !want.CDS.Equal(got.CDS) {
		t.Errorf("seed %d: CDS differs", seed)
	}
	if !want.CDSPrime.Equal(got.CDSPrime) {
		t.Errorf("seed %d: CDS' differs", seed)
	}
	if !want.ICDS.Equal(got.ICDS) {
		t.Errorf("seed %d: ICDS differs", seed)
	}
	if !want.ICDSPrime.Equal(got.ICDSPrime) {
		t.Errorf("seed %d: ICDS' differs", seed)
	}
	if len(want.InBackbone) != len(got.InBackbone) {
		t.Fatalf("seed %d: InBackbone length %d vs %d", seed, len(want.InBackbone), len(got.InBackbone))
	}
	for v := range want.InBackbone {
		if want.InBackbone[v] != got.InBackbone[v] {
			t.Errorf("seed %d: InBackbone[%d] %v vs %v", seed, v, want.InBackbone[v], got.InBackbone[v])
		}
	}
	if !slices.Equal(want.Connectors, got.Connectors) {
		t.Fatalf("seed %d: connectors %v vs %v", seed, want.Connectors, got.Connectors)
	}
	if !slices.Equal(want.Backbone, got.Backbone) {
		t.Fatalf("seed %d: backbone %v vs %v", seed, want.Backbone, got.Backbone)
	}
}

// TestWitnessSpliceRoundTrip removes a key and re-splices the identical
// record; the aggregated state must be unchanged (edge refcounts, wins,
// reverse indexes all restore).
func TestWitnessSpliceRoundTrip(t *testing.T) {
	inst, err := udg.ConnectedInstance(3, 120, 200, 45, 0)
	if err != nil {
		t.Fatalf("instance: %v", err)
	}
	g := inst.UDG
	cl := cluster.Centralized(g)
	want, wit := CentralizedWitness(g, cl)

	var keys []keyID
	for k := range wit.records {
		keys = append(keys, k)
	}
	sortKeyIDs(keys)
	if len(keys) < 3 {
		t.Fatalf("too few keys: %d", len(keys))
	}
	for _, k := range keys[:3] {
		rec := wit.records[k]
		saved := *rec
		d1 := wit.splice(k, nil)
		if len(d1.RemovedEdges) == 0 && len(rec.Edges) > 0 {
			// All this key's edges were shared with other keys — fine.
			_ = d1
		}
		d2 := wit.splice(k, &saved)
		for _, e := range d1.RemovedEdges {
			found := false
			for _, a := range d2.AddedEdges {
				if a == e {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("key %v: removed edge %v not restored", k, e)
			}
		}
	}
	got := wit.assemble(g, cl)
	assertResultsEqual(t, 3, want, got)
}

// TestWitnessPatchMatchesCentralized is the oracle of Witness.Patch:
// random nodes fail and later rejoin, the clustering is re-derived from
// scratch on the new alive graph, and the patched Result must equal
// Centralized there graph for graph. The scope handed to Patch is what
// its contract asks for: every node whose liveness or clustering entry
// changed, plus their neighbors. Patch must also report every node whose
// backbone membership or ICDS row changed.
func TestWitnessPatchMatchesCentralized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		inst, err := udg.ConnectedInstance(seed, 150, 200, 40, 0)
		if err != nil {
			t.Fatalf("instance: %v", err)
		}
		full := inst.UDG
		rng := rand.New(rand.NewSource(seed))
		alive := make(map[int]bool, full.N())
		for v := 0; v < full.N(); v++ {
			alive[v] = true
		}
		g := full.Subgraph(alive)
		cl := cluster.Centralized(g)
		res, wit := CentralizedWitness(g, cl)
		var dead []int
		for step := 0; step < 40; step++ {
			var toggled []int
			for i := 0; i < 1+rng.Intn(3); i++ {
				if len(dead) > 0 && rng.Intn(3) == 0 {
					j := rng.Intn(len(dead))
					toggled = append(toggled, dead[j])
					alive[dead[j]] = true
					dead = slices.Delete(dead, j, j+1)
				} else if v := rng.Intn(full.N()); alive[v] {
					toggled = append(toggled, v)
					delete(alive, v)
					dead = append(dead, v)
				}
			}
			// The lowest-ID MIS of the survivors, with each dead node an
			// isolated dominatee outside the backbone, as maintenance keeps it.
			g2 := full.Subgraph(alive)
			isDom := make([]bool, full.N())
			for v, st := range cluster.Centralized(g2).Status {
				isDom[v] = alive[v] && st == cluster.Dominator
			}
			cl2 := cluster.Derive(g2, isDom)
			changed := map[int]bool{}
			for _, v := range toggled {
				changed[v] = true
			}
			for v := range cl.Status {
				if cl.Status[v] != cl2.Status[v] || !slices.Equal(cl.DominatorsOf[v], cl2.DominatorsOf[v]) ||
					!slices.Equal(cl.TwoHopDominators[v], cl2.TwoHopDominators[v]) {
					changed[v] = true
				}
			}
			inScope := map[int]bool{}
			for v := range changed {
				inScope[v] = true
				for _, u := range full.Neighbors(v) {
					inScope[u] = true
				}
			}
			var scope []int
			for v := range inScope {
				scope = append(scope, v)
			}
			slices.Sort(scope)

			before := res.ICDS.Clone()
			wasIn := res.InBackbone
			touched := wit.Patch(cluster.GraphView(g2), cl2, res, scope, nil)
			assertResultsEqual(t, seed, Centralized(g2, cl2), res)
			for v := range wasIn {
				moved := wasIn[v] != res.InBackbone[v] || !slices.Equal(before.Neighbors(v), res.ICDS.Neighbors(v))
				if _, found := slices.BinarySearch(touched, v); moved && !found {
					t.Fatalf("seed %d step %d: node %d changed backbone row but Patch did not report it", seed, step, v)
				}
			}
			if t.Failed() {
				t.Fatalf("seed %d step %d: patched Result diverged (toggled %v)", seed, step, toggled)
			}
			cl = cl2
		}
	}
}
