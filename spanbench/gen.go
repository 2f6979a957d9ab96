package main

import (
	"errors"
	"math"
	"math/rand"

	"geospanner"
	"geospanner/internal/health"
)

// The benchmark's inputs — points, churn batches and route pairs — come
// from this generator alone, seeded by the seed argument. Events are built
// with the public constructors, never by the service's own scheduler, so
// a change to the scheduler cannot change what the benchmark feeds the
// program.

// region is the side of the deployment square, as in -exp scale and
// -exp churn.
const region = 200.0

// radiusFor keeps the unit-disk-graph average degree near 20 at any n.
func radiusFor(n int) float64 {
	return region * math.Sqrt(20/(math.Pi*float64(n)))
}

// genPoints places n distinct points uniformly in the square.
func genPoints(rng *rand.Rand, n int) []geospanner.Point {
	pts := make([]geospanner.Point, 0, n)
	seen := make(map[geospanner.Point]bool, n)
	for len(pts) < n {
		p := geospanner.Pt(rng.Float64()*region, rng.Float64()*region)
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	return pts
}

// eventMix is a churn profile: cumulative roll thresholds over [0,100)
// for moves, crashes and joins; voluntary leaves take the rest.
type eventMix struct{ move, crash, join int }

// The two mixes, copied from the service's ProfileMove and ProfileMixed
// so the workloads match -exp churn.
var (
	mixMove  = eventMix{move: 85, crash: 91, join: 97}
	mixMixed = eventMix{move: 45, crash: 65, join: 85}
)

// churnGen mirrors the alive set and positions so that every generated
// event is one the service accepts: moves and departures pick alive
// nodes, joins pick dead ones. Departures are suppressed below a quarter
// of the nodes alive, so a long run churns a living network.
//
// The mix rolls are drawn without replacement from blocks of 100: every
// 100 consecutive events hold the mix exactly, so the alive count — and
// with it the cost of an epoch — follows the same course on every seed.
// The seed picks the order, the nodes and the moves.
type churnGen struct {
	rng    *rand.Rand
	pts    []geospanner.Point
	alive  []bool
	nAlive int
	step   float64
	mix    eventMix
	rolls  []int // rest of the current block
}

func newChurnGen(rng *rand.Rand, pts []geospanner.Point, radius float64, mix eventMix) *churnGen {
	g := &churnGen{
		rng:    rng,
		pts:    append([]geospanner.Point(nil), pts...),
		alive:  make([]bool, len(pts)),
		nAlive: len(pts),
		step:   radius / 2,
		mix:    mix,
	}
	for v := range g.alive {
		g.alive[v] = true
	}
	return g
}

// batch returns the next k events.
func (g *churnGen) batch(k int) []geospanner.TopologyEvent {
	out := make([]geospanner.TopologyEvent, k)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func (g *churnGen) next() geospanner.TopologyEvent {
	if len(g.rolls) == 0 {
		g.rolls = g.rng.Perm(100)
	}
	roll := g.rolls[0]
	g.rolls = g.rolls[1:]
	quorum := g.nAlive*4 >= len(g.pts) && g.nAlive > 1
	switch {
	case roll < g.mix.move:
		return g.move()
	case roll < g.mix.crash && quorum:
		return geospanner.NewCrash(g.depart())
	case roll < g.mix.join && g.nAlive < len(g.pts):
		v := g.pick(false)
		g.alive[v] = true
		g.nAlive++
		return geospanner.NewJoin(v)
	case quorum:
		return geospanner.NewLeave(g.depart())
	default:
		return g.move()
	}
}

// move displaces an alive node by at most half the radius per axis,
// reflected at the border rather than clamped: clamping would pile nodes
// onto the border lines, where collinear points are degenerate inputs for
// the Delaunay tests.
func (g *churnGen) move() geospanner.TopologyEvent {
	v := g.pick(true)
	p := g.pts[v]
	p.X = mirror(p.X + (g.rng.Float64()*2-1)*g.step)
	p.Y = mirror(p.Y + (g.rng.Float64()*2-1)*g.step)
	g.pts[v] = p
	return geospanner.NewMove(v, p)
}

func (g *churnGen) depart() int {
	v := g.pick(true)
	g.alive[v] = false
	g.nAlive--
	return v
}

// pick returns a uniformly random node whose liveness is alive.
func (g *churnGen) pick(alive bool) int {
	for {
		if v := g.rng.Intn(len(g.pts)); g.alive[v] == alive {
			return v
		}
	}
}

func mirror(x float64) float64 {
	if x < 0 {
		return -x
	}
	if x > region {
		return 2*region - x
	}
	return x
}

// pairPicker draws route pairs on one pinned epoch: a uniform alive
// source and a uniform destination in the source's live component, so
// every pair has a route. Its buffers are sized once; reset and pick do
// not allocate.
type pairPicker struct {
	rng   *rand.Rand
	comp  []int32 // component index per node (alive nodes only)
	alive []int32
	comps []health.Component
}

func newPairPicker(seed int64, n int) *pairPicker {
	return &pairPicker{
		rng:   rand.New(rand.NewSource(seed)),
		comp:  make([]int32, n),
		alive: make([]int32, 0, n),
	}
}

// reset points the picker at an epoch's live components.
func (p *pairPicker) reset(comps []health.Component) error {
	p.comps = comps
	p.alive = p.alive[:0]
	routable := false
	for ci, c := range comps {
		for _, v := range c.Nodes {
			p.comp[v] = int32(ci)
			p.alive = append(p.alive, int32(v))
		}
		routable = routable || len(c.Nodes) > 1
	}
	if !routable {
		return errors.New("no live component with two nodes")
	}
	return nil
}

// pick returns a routable pair of distinct nodes.
func (p *pairPicker) pick() (int, int) {
	for {
		src := int(p.alive[p.rng.Intn(len(p.alive))])
		nodes := p.comps[p.comp[src]].Nodes
		if len(nodes) < 2 {
			continue
		}
		for {
			if dst := nodes[p.rng.Intn(len(nodes))]; dst != src {
				return src, dst
			}
		}
	}
}

// genPairs draws count pairs on one epoch — the fixed pair list of the
// quiet routing phase.
func genPairs(seed int64, n, count int, comps []health.Component) ([][2]int, error) {
	p := newPairPicker(seed, n)
	if err := p.reset(comps); err != nil {
		return nil, err
	}
	out := make([][2]int, count)
	for i := range out {
		out[i][0], out[i][1] = p.pick()
	}
	return out, nil
}
