package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/udg"
)

func pathGraph(n int) *graph.Graph {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i), 0)
	}
	g := graph.New(pts)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func assertValidClustering(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	// Every node decided.
	for v, s := range res.Status {
		if s == White {
			t.Fatalf("node %d still white", v)
		}
	}
	// Independence: no two adjacent dominators.
	for _, u := range res.Dominators {
		for _, v := range res.Dominators {
			if u < v && g.HasEdge(u, v) {
				t.Fatalf("adjacent dominators %d, %d", u, v)
			}
		}
	}
	// Domination and maximality: every dominatee has >= 1 adjacent
	// dominator (maximality follows: a dominatee cannot be added to the
	// independent set).
	for v, s := range res.Status {
		if s != Dominatee {
			continue
		}
		if len(res.DominatorsOf[v]) == 0 {
			t.Fatalf("dominatee %d has no adjacent dominator", v)
		}
		for _, u := range res.DominatorsOf[v] {
			if !g.HasEdge(u, v) {
				t.Fatalf("recorded dominator %d not adjacent to %d", u, v)
			}
			if res.Status[u] != Dominator {
				t.Fatalf("recorded dominator %d of %d is not a dominator", u, v)
			}
		}
	}
	// Two-hop lists are correct: dominators at hop distance exactly 2.
	for v := range res.TwoHopDominators {
		for _, u := range res.TwoHopDominators[v] {
			if res.Status[u] != Dominator {
				t.Fatalf("two-hop entry %d of node %d is not a dominator", u, v)
			}
			if g.HasEdge(u, v) || u == v {
				t.Fatalf("two-hop entry %d of node %d is adjacent or self", u, v)
			}
			if g.HopDist(v, u) != 2 {
				t.Fatalf("two-hop entry %d of node %d is at distance %d", u, v, g.HopDist(v, u))
			}
		}
	}
}

func TestRunPathGraph(t *testing.T) {
	g := pathGraph(6)
	res, net, err := Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertValidClustering(t, g, res)
	// On a path 0-1-2-3-4-5 the lowest-ID MIS is {0, 2, 4}.
	want := []int{0, 2, 4}
	if !reflect.DeepEqual(res.Dominators, want) {
		t.Fatalf("Dominators = %v, want %v", res.Dominators, want)
	}
	// Message bounds: IamDominator once per dominator; IamDominatee at
	// most 5 per node (Lemma 1).
	byType := net.SentByType()
	if byType["IamDominator"] != 3 {
		t.Fatalf("IamDominator count = %d, want 3", byType["IamDominator"])
	}
	for id := 0; id < g.N(); id++ {
		if net.Sent(id) > 6 {
			t.Fatalf("node %d sent %d messages", id, net.Sent(id))
		}
	}
}

func TestRunSingleNode(t *testing.T) {
	g := graph.New([]geom.Point{geom.Pt(0, 0)})
	res, _, err := Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[0] != Dominator {
		t.Fatal("isolated node should be a dominator")
	}
	if !res.IsDominator(0) {
		t.Fatal("IsDominator disagreement")
	}
}

func TestRunMatchesCentralized(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		inst, err := udg.ConnectedInstance(seed, 60, 200, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		dist, _, err := Run(inst.UDG, 0)
		if err != nil {
			t.Fatal(err)
		}
		cent := Centralized(inst.UDG)
		if !reflect.DeepEqual(dist.Dominators, cent.Dominators) {
			t.Fatalf("seed %d: dominators differ:\ndist %v\ncent %v", seed, dist.Dominators, cent.Dominators)
		}
		if !reflect.DeepEqual(dist.Status, cent.Status) {
			t.Fatalf("seed %d: statuses differ", seed)
		}
		if !reflect.DeepEqual(dist.DominatorsOf, cent.DominatorsOf) {
			t.Fatalf("seed %d: DominatorsOf differ", seed)
		}
		if !reflect.DeepEqual(dist.TwoHopDominators, cent.TwoHopDominators) {
			t.Fatalf("seed %d: TwoHopDominators differ", seed)
		}
		assertValidClustering(t, inst.UDG, dist)
	}
}

// TestLemma1FiveDominators verifies that no dominatee is adjacent to more
// than five dominators (Lemma 1) on random instances.
func TestLemma1FiveDominators(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		inst, err := udg.ConnectedInstance(seed, 80, 200, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := Centralized(inst.UDG)
		for v := range res.DominatorsOf {
			if len(res.DominatorsOf[v]) > 5 {
				t.Fatalf("seed %d: node %d has %d dominators (Lemma 1 violated)",
					seed, v, len(res.DominatorsOf[v]))
			}
		}
	}
}

// TestLemma2BoundedDominatorsInDisk verifies the packing bound: the number
// of dominators within k units of any node is bounded by (2k+1)^2
// (a generous version of Lemma 2's area argument).
func TestLemma2BoundedDominatorsInDisk(t *testing.T) {
	inst, err := udg.ConnectedInstance(5, 150, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := Centralized(inst.UDG)
	radius := inst.Radius
	for k := 1; k <= 3; k++ {
		bound := (2*k + 1) * (2*k + 1)
		for v := 0; v < inst.UDG.N(); v++ {
			count := 0
			for _, d := range res.Dominators {
				if inst.Points[v].Dist(inst.Points[d]) <= float64(k)*radius {
					count++
				}
			}
			if count > bound {
				t.Fatalf("node %d has %d dominators within %d units, bound %d", v, count, k, bound)
			}
		}
	}
}

// TestMessageConstantPerNode checks Lemma 3: a constant per-node message
// bound that holds across densities.
func TestMessageConstantPerNode(t *testing.T) {
	for _, n := range []int{30, 80, 150} {
		inst, err := udg.ConnectedInstance(int64(n), n, 200, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, net, err := Run(inst.UDG, 0)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < inst.UDG.N(); id++ {
			// 1 IamDominator + at most 5 IamDominatee.
			if net.Sent(id) > 6 {
				t.Fatalf("n=%d: node %d sent %d messages", n, id, net.Sent(id))
			}
		}
	}
}

func TestDominatorsOfDominatorEmpty(t *testing.T) {
	g := pathGraph(3)
	res := Centralized(g)
	for _, d := range res.Dominators {
		if len(res.DominatorsOf[d]) != 0 {
			t.Fatalf("dominator %d has DominatorsOf %v", d, res.DominatorsOf[d])
		}
	}
}

func TestStatusString(t *testing.T) {
	if White.String() != "white" || Dominator.String() != "dominator" || Dominatee.String() != "dominatee" {
		t.Fatal("Status.String mismatch")
	}
}

// TestRederiveMatchesDerive pins the scoped re-derivation to the full
// one: after each random change to a dirty node set — a node dies or
// rejoins, or its dominator flag flips — re-deriving only the nodes
// within two hops of a dirty node, in the old graph or the new, must give
// exactly a fresh Derive.
func TestRederiveMatchesDerive(t *testing.T) {
	partial := 0
	for seed := int64(1); seed <= 5; seed++ {
		inst, err := udg.ConnectedInstance(seed, 120, 200, 40, 0)
		if err != nil {
			t.Fatal(err)
		}
		full := inst.UDG
		n := full.N()
		rng := rand.New(rand.NewSource(seed))
		alive := make(map[int]bool, n)
		for v := 0; v < n; v++ {
			alive[v] = true
		}
		isDom := make([]bool, n)
		for v, st := range Centralized(full).Status {
			isDom[v] = st == Dominator
		}
		g := full.Subgraph(alive)
		r := Derive(g, isDom)
		for step := 0; step < 25; step++ {
			var dirty []int
			for i := 0; i < 1+rng.Intn(4); i++ {
				v := rng.Intn(n)
				dirty = append(dirty, v)
				if rng.Intn(3) == 0 {
					isDom[v] = !isDom[v]
				} else if alive[v] {
					delete(alive, v)
				} else {
					alive[v] = true
				}
			}
			g2 := full.Subgraph(alive)
			inScope := map[int]bool{}
			frontier := dirty
			for hop := 0; hop <= 2; hop++ {
				var next []int
				for _, v := range frontier {
					if inScope[v] {
						continue
					}
					inScope[v] = true
					next = append(next, g.Neighbors(v)...)
					next = append(next, g2.Neighbors(v)...)
				}
				frontier = next
			}
			scope := make([]int, 0, len(inScope))
			for v := range inScope {
				scope = append(scope, v)
			}
			slices.Sort(scope)
			if len(scope) < n/2 {
				partial++
			}

			r.Rederive(GraphView(g2), func(v int) bool { return isDom[v] }, scope)
			if want := Derive(g2, isDom); !reflect.DeepEqual(r, want) {
				t.Fatalf("seed %d step %d: re-derivation over %d of %d nodes differs from Derive (dirty %v)",
					seed, step, len(scope), n, dirty)
			}
			g = g2
		}
	}
	if partial == 0 {
		t.Fatal("every scope covered half the network; the scoped path was never exercised")
	}
}
