package ldel

import (
	"fmt"
	"sort"

	"geospanner/internal/geom"
	"geospanner/internal/graph"
)

// Centralized computes the same Result as Run without message passing, by
// running the protocol's per-node rules node by node. Tests assert Run and
// Centralized agree on every instance.
func Centralized(g *graph.Graph, active []bool, radius float64) (*Result, error) {
	return CentralizedK(g, active, radius, 1)
}

// CentralizedK generalizes Centralized to the k-localized Delaunay graph
// LDel⁽ᵏ⁾: every node uses its k-hop neighborhood instead of its 1-hop
// neighborhood. Li et al. prove LDel⁽ᵏ⁾ is already planar for k ≥ 2 (the
// planarization pass is then a no-op) and that UDel ⊆ LDel⁽ᵏ⁺¹⁾ ⊆ LDel⁽ᵏ⁾.
// The paper's pipeline uses k = 1, the cheapest variant, precisely because
// planarization restores planarity at constant extra cost.
func CentralizedK(g *graph.Graph, active []bool, radius float64, k int) (*Result, error) {
	res, _, err := centralizedK(g, active, radius, k)
	return res, err
}

// CentralizedWitness runs Centralized (k = 1) and returns the Result
// together with the decision witness for incremental patching.
func CentralizedWitness(g *graph.Graph, active []bool, radius float64) (*Result, *Witness, error) {
	return centralizedK(g, active, radius, 1)
}

// centralizedK is every centralized build: a fresh witness brought current
// over every node by the tiers Patch runs over a dirty set.
func centralizedK(g *graph.Graph, active []bool, radius float64, k int) (*Result, *Witness, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("ldel: neighborhood parameter k must be >= 1, got %d", k)
	}
	n := g.N()
	w := &Witness{
		radius:    radius,
		k:         k,
		nbrs:      make([][]int, n),
		mine:      make([][]TriKey, n),
		proposed:  make([][]TriKey, n),
		gabriel:   make(map[graph.Edge]bool),
		kept:      make(map[TriKey]bool),
		surviving: make(map[TriKey]bool),
	}
	every := make([]int, n)
	for v := range every {
		every[v] = v
	}
	if err := w.update(g, allActive(active, n), every); err != nil {
		return nil, nil, err
	}
	return assemble(g.Points(), w.gabriel, w.kept, w.surviving), w, nil
}

// Witness records every per-node decision of LDel⁽ᵏ⁾ — the k-hop
// neighborhoods, each node's incident and proposed triangles, the Gabriel
// certificates, and the kept and surviving triangle sets. Each of those
// decisions is a pure function of a bounded neighborhood, so when a
// topology change touches a known dirty set of nodes, Patch re-runs only
// the decisions whose inputs intersect it and rebuilds PLDel from the
// spliced state — bit-identical to a from-scratch run (the maintain churn
// oracle pins this). A from-scratch run is the same update over every
// node of an empty witness.
type Witness struct {
	radius    float64
	k         int
	nbrs      [][]int
	mine      [][]TriKey
	proposed  [][]TriKey
	gabriel   map[graph.Edge]bool
	kept      map[TriKey]bool
	surviving map[TriKey]bool
}

// Triangles counts currently surviving triangles (diagnostics).
func (w *Witness) Triangles() int { return len(w.surviving) }

// Patch re-runs the localized-Delaunay decisions around a dirty node set
// and returns the new PLDel graph. dirty must contain every node whose
// active flag, position, or alive-graph neighborhood changed since the
// witness was last current; g and active are the post-change topology.
func (w *Witness) Patch(g *graph.Graph, active []bool, dirty []int) (*graph.Graph, error) {
	if err := w.update(g, active, dirty); err != nil {
		return nil, err
	}
	return planarGraph(g.Points(), w.gabriel, w.surviving), nil
}

// update brings the witness current around dirty in three tiers, each
// scoped by the locality of the rule it replays (see DESIGN.md §14a for
// the completeness argument):
//
//  1. node decisions — recomputed for dirty nodes only. Gabriel
//     certificates are symmetric (a blocking witness lies within the
//     diametral disk, hence within range of both endpoints), so deleting
//     entries incident to a dirty node and re-adding its recomputed
//     certificates restores the global certificate set.
//  2. kept status — recomputed for the union of old and new incident
//     triangles of dirty nodes; a kept-status change requires some
//     corner's mine/proposed sets to have changed, and those only change
//     at dirty nodes.
//  3. survival — recomputed for every kept triangle with a corner within
//     two hops of the dirty set: a survival flip needs either a dirty
//     corner or a changed kept triangle within earshot, and changed kept
//     triangles have all corners within one hop of the dirty set.
func (w *Witness) update(g *graph.Graph, active []bool, dirty []int) error {
	pts := g.Points()
	r2 := w.radius * w.radius

	dset := make(map[int]bool, len(dirty))
	for _, v := range dirty {
		dset[v] = true
	}
	sortedDirty := make([]int, 0, len(dset))
	for v := range dset {
		sortedDirty = append(sortedDirty, v)
	}
	sort.Ints(sortedDirty)

	// ball1: the dirty set plus its old and new neighborhoods — a superset
	// of every corner of a triangle whose kept status can change.
	ball1 := make(map[int]bool)
	cand := make(map[TriKey]bool)
	for _, v := range sortedDirty {
		ball1[v] = true
		for _, x := range w.nbrs[v] {
			ball1[x] = true
		}
		for _, t := range w.mine[v] {
			cand[t] = true
		}
	}

	// Tier 1: per-node decisions of dirty nodes.
	for e := range w.gabriel {
		if dset[e.U] || dset[e.V] {
			delete(w.gabriel, e)
		}
	}
	for _, v := range sortedDirty {
		if !active[v] {
			w.nbrs[v] = nil
			w.mine[v] = nil
			w.proposed[v] = nil
			continue
		}
		w.nbrs[v] = kHopNeighbors(g, active, v, w.k)
		for _, x := range w.nbrs[v] {
			ball1[x] = true
		}
		ids := append([]int{v}, w.nbrs[v]...)
		sort.Ints(ids)
		local := make([]geom.Point, len(ids))
		for j, id := range ids {
			local[j] = pts[id]
		}
		gab, m, p, err := nodeDecisions(v, ids, local, r2)
		if err != nil {
			return err
		}
		for _, e := range gab {
			w.gabriel[e] = true
		}
		w.mine[v] = m
		w.proposed[v] = p
		for _, t := range m {
			cand[t] = true
		}
	}

	// Tier 2: kept status over the candidate triangles.
	for t := range cand {
		now := keptStatus(t, w.mine, w.proposed)
		if now == w.kept[t] {
			continue
		}
		if now {
			w.kept[t] = true
		} else {
			delete(w.kept, t)
			delete(w.surviving, t)
		}
	}

	// Tier 3: survival over kept triangles near the dirty set.
	ball2 := make(map[int]bool, len(ball1))
	for v := range ball1 {
		ball2[v] = true
		if active[v] {
			for _, x := range w.nbrs[v] {
				ball2[x] = true
			}
		}
	}
	keptList := make([]TriKey, 0, len(w.kept))
	for t := range w.kept {
		keptList = append(keptList, t)
	}
	// No result depends on this order (survives is an OR over keptList),
	// but survives scans keptList once per corner of every re-checked
	// triangle, and that scan runs faster in sorted order than in map
	// order: in 8 alternating pairs of full n=2000 builds on a 2-vCPU x86
	// VM, the sorted side's fastest build was 5–23% faster in every pair.
	sortTris(keptList)
	for _, t := range keptList {
		if !ball2[t[0]] && !ball2[t[1]] && !ball2[t[2]] {
			continue
		}
		if w.survives(pts, keptList, t) {
			w.surviving[t] = true
		} else {
			delete(w.surviving, t)
		}
	}
	return nil
}

// survives applies Algorithm 3 step 2 to kept triangle t at each of its
// corners z: t is discarded when a kept triangle z hears of — one with a
// corner in z's closed neighborhood — removes it.
func (w *Witness) survives(pts []geom.Point, keptList []TriKey, t TriKey) bool {
	p1 := corners(pts, t)
	for _, z := range t {
		reach := map[int]bool{z: true}
		for _, v := range w.nbrs[z] {
			reach[v] = true
		}
		for _, t2 := range keptList {
			if (reach[t2[0]] || reach[t2[1]] || reach[t2[2]]) && removes(t, p1, t2, corners(pts, t2)) {
				return false
			}
		}
	}
	return true
}

// corners returns the positions of t's vertices.
func corners(pts []geom.Point, t TriKey) [3]geom.Point {
	return [3]geom.Point{pts[t[0]], pts[t[1]], pts[t[2]]}
}
