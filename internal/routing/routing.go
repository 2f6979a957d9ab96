// Package routing implements the localized routing algorithms the paper's
// backbone is built to serve: greedy geographic forwarding, GFG/GPSR-style
// greedy-face-greedy routing with guaranteed delivery on planar graphs
// (greedy forwarding plus FACE-1 perimeter recovery with the right-hand
// rule), and dominating-set-based routing that tunnels through the backbone
// (Wu & Li style, as referenced in the paper's simulation section).
package routing

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"geospanner/internal/geom"
	"geospanner/internal/graph"
)

// Routing failures.
var (
	// ErrGreedyStuck is returned by RouteGreedy at a local minimum: no
	// neighbor is closer to the destination than the current node.
	ErrGreedyStuck = errors.New("routing: greedy forwarding stuck at local minimum")
	// ErrNoRoute is returned when face recovery cannot make progress
	// (disconnected destination or step budget exhausted).
	ErrNoRoute = errors.New("routing: no route found")
)

// RouteGreedy forwards greedily: each step moves to the neighbor strictly
// closest to the destination. It returns ErrGreedyStuck at a local minimum.
func RouteGreedy(g *graph.Graph, src, dst int, maxSteps int) ([]int, error) {
	if maxSteps <= 0 {
		maxSteps = 4 * g.N()
	}
	pts := g.Points()
	path := []int{src}
	cur := src
	for steps := 0; cur != dst; steps++ {
		if steps > maxSteps {
			return path, fmt.Errorf("%w: step budget exhausted", ErrNoRoute)
		}
		next, bestD := -1, pts[cur].Dist2(pts[dst])
		for _, v := range g.Neighbors(cur) {
			if d := pts[v].Dist2(pts[dst]); d < bestD {
				next, bestD = v, d
			}
		}
		if next == -1 {
			return path, fmt.Errorf("%w (at node %d)", ErrGreedyStuck, cur)
		}
		path = append(path, next)
		cur = next
	}
	return path, nil
}

// RouteGFG routes from src to dst with greedy forwarding, falling back to
// FACE-1 perimeter traversal (right-hand rule over the planar embedding)
// at local minima and resuming greedy as soon as a node closer to the
// destination than the minimum is reached. On a connected planar graph
// delivery is guaranteed (Bose, Morin, Stojmenović, Urrutia 2001); the
// paper's LDel(ICDS) backbone is constructed planar precisely to enable
// this family of algorithms.
//
// RouteGFG builds a Planner per call; when routing many pairs on one
// graph, build the Planner once with NewPlanner and call its RouteGFG.
func RouteGFG(g *graph.Graph, src, dst int, maxSteps int) ([]int, error) {
	return NewPlanner(g).RouteGFG(src, dst, maxSteps)
}

// Planner precomputes, once per graph, everything the localized routing
// algorithms query on every step: an immutable frozen snapshot of the
// adjacency and the angular (rotation-system) neighbor order around every
// node, stored CSR-style. A Planner is immutable after construction and
// safe for concurrent use; per-route mutable state lives in a router.
type Planner struct {
	f         *graph.Frozen
	pts       []geom.Point
	angIDs    []int32   // neighbor ids in (theta, id) order, CSR layout
	angThetas []float64 // bearings matching angIDs
}

// NewPlanner freezes g and precomputes the rotation system.
func NewPlanner(g *graph.Graph) *Planner { return NewPlannerFrozen(g.Freeze()) }

// NewPlannerFrozen precomputes the rotation system over an existing frozen
// snapshot without re-freezing. A topology service that already published
// an immutable epoch snapshot plans routes directly against it, so query
// execution pins exactly the snapshot the reader holds.
func NewPlannerFrozen(f *graph.Frozen) *Planner {
	n := f.N()
	p := &Planner{
		f:         f,
		pts:       f.Points(),
		angIDs:    make([]int32, 2*f.NumEdges()),
		angThetas: make([]float64, 2*f.NumEdges()),
	}
	var scratch []angled
	pos := 0
	for u := 0; u < n; u++ {
		nbrs := f.Neighbors(u)
		scratch = scratch[:0]
		for _, v := range nbrs {
			scratch = append(scratch, angled{
				id:    int(v),
				theta: math.Atan2(p.pts[v].Y-p.pts[u].Y, p.pts[v].X-p.pts[u].X),
			})
		}
		sort.Slice(scratch, func(i, j int) bool {
			if scratch[i].theta != scratch[j].theta {
				return scratch[i].theta < scratch[j].theta
			}
			return scratch[i].id < scratch[j].id
		})
		for _, a := range scratch {
			p.angIDs[pos] = int32(a.id)
			p.angThetas[pos] = a.theta
			pos++
		}
	}
	return p
}

// RouteGFG routes one pair on the precomputed planner; see the package
// function of the same name for the algorithm.
func (p *Planner) RouteGFG(src, dst int, maxSteps int) ([]int, error) {
	if maxSteps <= 0 {
		maxSteps = 20*p.f.NumEdges() + 10*p.f.N() + 50
	}
	r := &router{p: p, maxSteps: maxSteps}
	return r.route(src, dst)
}

// router carries the mutable per-route state (the step budget) on top of a
// shared immutable Planner.
type router struct {
	p        *Planner
	maxSteps int
	steps    int
}

type angled struct {
	id    int
	theta float64
}

type dirEdge struct{ from, to int }

func (r *router) route(src, dst int) ([]int, error) {
	path := []int{src}
	cur := src
	for cur != dst {
		var err error
		cur, path, err = r.greedyRun(path, cur, dst)
		if err == nil {
			return path, nil // reached dst
		}
		if !errors.Is(err, ErrGreedyStuck) {
			return path, err
		}
		cur, path, err = r.facePhase(path, cur, dst)
		if err != nil {
			return path, err
		}
		if cur == dst {
			return path, nil
		}
	}
	return path, nil
}

// greedyRun forwards greedily until dst or a local minimum.
func (r *router) greedyRun(path []int, cur, dst int) (int, []int, error) {
	for cur != dst {
		if r.budget() != nil {
			return cur, path, fmt.Errorf("%w: step budget exhausted", ErrNoRoute)
		}
		next, bestD := -1, r.dist2(cur, dst)
		for _, v := range r.p.f.Neighbors(cur) {
			if d := r.dist2(int(v), dst); d < bestD {
				next, bestD = int(v), d
			}
		}
		if next == -1 {
			return cur, path, ErrGreedyStuck
		}
		path = append(path, next)
		cur = next
	}
	return cur, path, nil
}

// facePhase runs FACE-1 from the local minimum u: traverse the face
// containing the segment u→dst with the right-hand rule; on completing a
// face boundary, cross the boundary edge whose intersection with the fixed
// segment lies closest to the destination, and continue on the adjacent
// face. The phase ends as soon as any visited node is strictly closer to
// dst than u was (GFG resume rule) or the destination itself is reached.
func (r *router) facePhase(path []int, u, dst int) (int, []int, error) {
	sA := r.p.pts[u]
	sB := r.p.pts[dst]
	resumeD := r.dist2(u, dst)
	// anchorD tracks the squared distance from the best crossing found so
	// far (initially the local minimum itself) to the destination; each
	// face switch must strictly improve it.
	anchorD := resumeD

	entryFrom := u
	entryTo, ok := r.p.firstEdge(u, dst)
	if !ok {
		return u, path, fmt.Errorf("%w: node %d has no neighbors", ErrNoRoute, u)
	}

	for faceIter := 0; faceIter <= r.p.f.NumEdges()+2; faceIter++ {
		// Walk the face boundary fully, recording the node sequence.
		var walk []int
		e := dirEdge{from: entryFrom, to: entryTo}
		bestIdx, bestQD := -1, anchorD
		for {
			if err := r.budget(); err != nil {
				return u, path, fmt.Errorf("%w: step budget exhausted in face traversal", ErrNoRoute)
			}
			walk = append(walk, e.to)
			if e.to == dst || r.dist2(e.to, dst) < resumeD {
				// GFG resume: commit the walk up to this node.
				path = append(path, walk...)
				return e.to, path, nil
			}
			// Crossing of edge e with the fixed segment.
			if q, crosses := segCross(r.p.pts[e.from], r.p.pts[e.to], sA, sB); crosses {
				if qd := pdist2(q, sB); qd < bestQD-1e-12 {
					bestQD = qd
					bestIdx = len(walk) - 1
				}
			}
			e = r.p.orbitNext(e)
			if e.from == entryFrom && e.to == entryTo {
				break // face boundary complete
			}
		}
		if bestIdx < 0 {
			return u, path, fmt.Errorf("%w: face traversal found no progress toward node %d", ErrNoRoute, dst)
		}
		// Commit the walk up to (and across) the best crossing edge, then
		// continue on the adjacent face entered through that edge.
		path = append(path, walk[:bestIdx+1]...)
		crossedTo := walk[bestIdx]
		crossedFrom := entryFrom
		if bestIdx > 0 {
			crossedFrom = walk[bestIdx-1]
		}
		anchorD = bestQD
		entryFrom, entryTo = crossedTo, crossedFrom
	}
	return u, path, fmt.Errorf("%w: face budget exhausted", ErrNoRoute)
}

func (r *router) budget() error {
	r.steps++
	if r.steps > r.maxSteps {
		return ErrNoRoute
	}
	return nil
}

func (r *router) dist2(a, b int) float64 { return r.p.dist2(a, b) }

func (p *Planner) dist2(a, b int) float64 { return pdist2(p.pts[a], p.pts[b]) }

func pdist2(a, b geom.Point) float64 { return a.Dist2(b) }

// angularRange returns the CSR segment of u's rotation system: neighbor
// ids and bearings in (theta, id) order.
func (p *Planner) angularRange(u int) ([]int32, []float64) {
	lo, hi := p.f.NeighborRange(u)
	return p.angIDs[lo:hi], p.angThetas[lo:hi]
}

// prevCW returns the neighbor of u whose bearing is the cyclic predecessor
// of theta (the first edge encountered sweeping clockwise from theta).
// excluding nothing; returns false only when u has no neighbors.
func (p *Planner) prevCW(u int, theta float64) (int, bool) {
	ids, thetas := p.angularRange(u)
	if len(ids) == 0 {
		return 0, false
	}
	// Largest bearing strictly less than theta; wrap to the overall
	// largest when none is smaller.
	best := -1
	for i := range thetas {
		if thetas[i] < theta {
			best = i
		} else {
			break
		}
	}
	if best == -1 {
		best = len(ids) - 1
	}
	return int(ids[best]), true
}

// firstEdge picks the first boundary edge of the face at u containing the
// ray toward dst: the neighbor immediately clockwise of the ray.
func (p *Planner) firstEdge(u, dst int) (int, bool) {
	theta := math.Atan2(p.pts[dst].Y-p.pts[u].Y, p.pts[dst].X-p.pts[u].X)
	return p.prevCW(u, theta)
}

// orbitNext advances a directed edge along its face boundary with the
// right-hand rule: at the head, take the neighbor immediately clockwise of
// the reversed edge.
func (p *Planner) orbitNext(e dirEdge) dirEdge {
	theta := math.Atan2(p.pts[e.from].Y-p.pts[e.to].Y, p.pts[e.from].X-p.pts[e.to].X)
	next, _ := p.prevCW(e.to, theta) // e.to has >= 1 neighbor (e.from)
	return dirEdge{from: e.to, to: next}
}

// segCross returns the intersection point of properly crossing segments
// (a1,a2) and (b1,b2), using the exact predicates.
func segCross(a1, a2, b1, b2 geom.Point) (geom.Point, bool) {
	return geom.Seg(a1, a2).IntersectionPoint(geom.Seg(b1, b2))
}

// RouteDS performs dominating-set-based routing: adjacent nodes talk
// directly; otherwise the packet climbs to a dominator gateway, crosses the
// backbone graph with GFG, and descends to the destination. domsOf[v]
// lists v's adjacent dominators (empty for backbone members, who act as
// their own gateway).
//
// RouteDS builds a DSRouter per call; when routing many pairs on one
// topology, build the DSRouter once with NewDSRouter.
func RouteDS(udgG, backbone *graph.Graph, domsOf [][]int, inBackbone []bool, src, dst int, maxSteps int) ([]int, error) {
	return NewDSRouter(udgG, backbone, domsOf, inBackbone).Route(src, dst, maxSteps)
}

// DSRouter precomputes the immutable state of dominating-set routing on one
// topology: a frozen snapshot of the flat graph (for the direct-edge check)
// and a Planner of the backbone (for the GFG crossing). It is safe for
// concurrent use.
type DSRouter struct {
	flat       *graph.Frozen
	backbone   *Planner
	domsOf     [][]int
	inBackbone []bool
}

// NewDSRouter freezes the flat graph and plans the backbone once.
func NewDSRouter(udgG, backbone *graph.Graph, domsOf [][]int, inBackbone []bool) *DSRouter {
	return NewDSRouterFrozen(udgG.Freeze(), NewPlanner(backbone), domsOf, inBackbone)
}

// NewDSRouterFrozen builds the router over pre-frozen snapshots: flat is
// the full (UDG) adjacency and backbone a Planner of the planar backbone.
// This is the pinned-snapshot entry point of a live topology service —
// every query executes against exactly the epoch the caller holds, with no
// hidden re-freeze of a possibly moving graph.
func NewDSRouterFrozen(flat *graph.Frozen, backbone *Planner, domsOf [][]int, inBackbone []bool) *DSRouter {
	return &DSRouter{
		flat:       flat,
		backbone:   backbone,
		domsOf:     domsOf,
		inBackbone: inBackbone,
	}
}

// Route routes one pair; see RouteDS for the algorithm.
func (d *DSRouter) Route(src, dst int, maxSteps int) ([]int, error) {
	if src == dst {
		return []int{src}, nil
	}
	if d.flat.HasEdge(src, dst) {
		return []int{src, dst}, nil
	}
	gateway := func(v int) (int, error) {
		if d.inBackbone[v] {
			return v, nil
		}
		if len(d.domsOf[v]) == 0 {
			return 0, fmt.Errorf("%w: node %d has no dominator", ErrNoRoute, v)
		}
		return d.domsOf[v][0], nil
	}
	gs, err := gateway(src)
	if err != nil {
		return nil, err
	}
	gd, err := gateway(dst)
	if err != nil {
		return nil, err
	}
	var core []int
	if gs == gd {
		core = []int{gs}
	} else {
		core, err = d.backbone.RouteGFG(gs, gd, maxSteps)
		if err != nil {
			return nil, fmt.Errorf("backbone route %d->%d: %w", gs, gd, err)
		}
	}
	path := make([]int, 0, len(core)+2)
	path = append(path, src)
	for _, v := range core {
		if path[len(path)-1] != v {
			path = append(path, v)
		}
	}
	if path[len(path)-1] != dst {
		path = append(path, dst)
	}
	return path, nil
}

// ValidatePath checks that every consecutive pair of a path is an edge of
// at least one of the given graphs (the DS route mixes UDG up/down links
// with backbone links).
func ValidatePath(path []int, gs ...*graph.Graph) error {
	for i := 1; i < len(path); i++ {
		ok := false
		for _, g := range gs {
			if g.HasEdge(path[i-1], path[i]) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("routing: path step (%d,%d) is not an edge", path[i-1], path[i])
		}
	}
	return nil
}
