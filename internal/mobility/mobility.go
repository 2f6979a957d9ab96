// Package mobility provides the random-waypoint movement model that
// exercises the paper's "easy to maintain when nodes move around" claim:
// its positions feed a topology service (internal/serve) as move events,
// and the service patches the backbone around each batch of moves.
package mobility

import (
	"math/rand"

	"geospanner/internal/geom"
)

// Model is a random-waypoint mobility model: every node picks a uniform
// destination in the square region and moves toward it at its speed; on
// arrival it picks a new destination.
type Model struct {
	rng    *rand.Rand
	region float64
	speed  float64
	pts    []geom.Point
	dst    []geom.Point
}

// NewModel creates a model over the given start positions. speed is
// distance per unit time; region is the side of the square.
func NewModel(seed int64, start []geom.Point, region, speed float64) *Model {
	m := &Model{
		rng:    rand.New(rand.NewSource(seed)),
		region: region,
		speed:  speed,
		pts:    make([]geom.Point, len(start)),
		dst:    make([]geom.Point, len(start)),
	}
	copy(m.pts, start)
	for i := range m.dst {
		m.dst[i] = m.randPoint()
	}
	return m
}

func (m *Model) randPoint() geom.Point {
	return geom.Pt(m.rng.Float64()*m.region, m.rng.Float64()*m.region)
}

// Positions returns a copy of the current positions.
func (m *Model) Positions() []geom.Point {
	out := make([]geom.Point, len(m.pts))
	copy(out, m.pts)
	return out
}

// Step advances all nodes by dt time units and returns the new positions
// (a copy).
func (m *Model) Step(dt float64) []geom.Point {
	for i := range m.pts {
		remaining := m.speed * dt
		for remaining > 0 {
			d := m.pts[i].Dist(m.dst[i])
			if d <= remaining {
				m.pts[i] = m.dst[i]
				remaining -= d
				m.dst[i] = m.randPoint()
				if d == 0 {
					break
				}
				continue
			}
			dir := m.dst[i].Sub(m.pts[i]).Scale(1 / d)
			m.pts[i] = m.pts[i].Add(dir.Scale(remaining))
			remaining = 0
		}
	}
	return m.Positions()
}
