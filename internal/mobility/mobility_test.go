package mobility

import (
	"math/rand"
	"testing"

	"geospanner/internal/geom"
	"geospanner/internal/udg"
)

func newRandSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestModelStaysInRegion(t *testing.T) {
	start := udg.RandomPoints(newRandSource(1), 50, 100)
	m := NewModel(2, start, 100, 5)
	for step := 0; step < 200; step++ {
		for _, p := range m.Step(1) {
			if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 100 {
				t.Fatalf("node left region: %v", p)
			}
		}
	}
}

func TestModelDeterministic(t *testing.T) {
	start := udg.RandomPoints(newRandSource(3), 20, 100)
	a := NewModel(7, start, 100, 3)
	b := NewModel(7, start, 100, 3)
	for i := 0; i < 50; i++ {
		pa := a.Step(0.5)
		pb := b.Step(0.5)
		for j := range pa {
			if !pa[j].Eq(pb[j]) {
				t.Fatal("same seed diverged")
			}
		}
	}
}

func TestModelMovesAtSpeed(t *testing.T) {
	start := []geom.Point{geom.Pt(50, 50)}
	m := NewModel(1, start, 100, 2)
	prev := m.Positions()[0]
	for i := 0; i < 20; i++ {
		cur := m.Step(1)[0]
		if d := prev.Dist(cur); d > 2+1e-9 {
			t.Fatalf("moved %v > speed*dt", d)
		}
		prev = cur
	}
}

func TestModelPositionsCopy(t *testing.T) {
	m := NewModel(1, []geom.Point{geom.Pt(1, 1)}, 10, 1)
	p := m.Positions()
	p[0] = geom.Pt(9, 9)
	if m.Positions()[0].Eq(geom.Pt(9, 9)) {
		t.Fatal("Positions leaked internal state")
	}
}
