package metrics

import (
	"math"
	"testing"

	"geospanner/internal/core"
	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/proximity"
	"geospanner/internal/udg"
)

func TestStretchIdentity(t *testing.T) {
	inst, err := udg.ConnectedInstance(1, 40, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := Stretch(inst.UDG, inst.UDG, StretchOptions{})
	if s.LengthAvg != 1 || s.LengthMax != 1 || s.HopAvg != 1 || s.HopMax != 1 {
		t.Fatalf("self-stretch = %+v, want all 1", s)
	}
	if s.Disconnected != 0 {
		t.Fatal("self-stretch reported disconnections")
	}
	if s.Pairs != 40*39/2 {
		t.Fatalf("pairs = %d, want %d", s.Pairs, 40*39/2)
	}
}

func TestStretchKnownSquare(t *testing.T) {
	// Square with side 1; structure drops one side: pairs across the
	// missing edge must detour through 3 hops.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	base := udg.Build(pts, 1) // 4 sides, no diagonals (length √2 > 1)
	sub := base.Clone()
	sub.RemoveEdge(0, 1)

	s := Stretch(base, sub, StretchOptions{})
	// Pair (0,1): base 1 hop/length 1; sub 3 hops/length 3.
	if s.HopMax != 3 || s.LengthMax != 3 {
		t.Fatalf("stretch = %+v, want max 3", s)
	}

	// With the direct-edge rule, the adjacent pair (0,1) counts as 1.
	d := Stretch(base, sub, StretchOptions{DirectEdges: true})
	if d.HopMax != 1 || d.LengthMax != 1 {
		t.Fatalf("direct stretch = %+v, want max 1", d)
	}
}

func TestStretchDisconnected(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	base := udg.Build(pts, 1)
	sub := graph.New(pts) // empty structure
	s := Stretch(base, sub, StretchOptions{})
	if s.Disconnected != 3 {
		t.Fatalf("Disconnected = %d, want 3", s.Disconnected)
	}
	if s.Pairs != 0 {
		t.Fatalf("Pairs = %d, want 0", s.Pairs)
	}
}

// TestSpannerStretchBounded: the primed structures are hop and length
// spanners — finite, modest stretch with zero disconnections.
func TestSpannerStretchBounded(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		inst, err := udg.ConnectedInstance(seed, 60, 200, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.BuildCentralized(inst.UDG, inst.Radius)
		if err != nil {
			t.Fatal(err)
		}
		opt := StretchOptions{DirectEdges: true}
		for name, sub := range map[string]*graph.Graph{
			"CDS'":        res.Conn.CDSPrime,
			"ICDS'":       res.Conn.ICDSPrime,
			"LDel(ICDS')": res.LDelICDSPrime,
		} {
			s := Stretch(inst.UDG, sub, opt)
			if s.Disconnected != 0 {
				t.Fatalf("seed %d: %s disconnected pairs: %d", seed, name, s.Disconnected)
			}
			if s.LengthMax > 12 || s.HopMax > 12 {
				t.Fatalf("seed %d: %s stretch too large: %+v", seed, name, s)
			}
			if s.LengthAvg < 1 || s.HopAvg < 1 {
				t.Fatalf("seed %d: %s stretch below 1: %+v", seed, name, s)
			}
		}
	}
}

func TestDegrees(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(-1, 0)}
	g := graph.New(pts)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	all := Degrees(g, nil)
	if all.Max != 3 || all.Avg != 1.5 {
		t.Fatalf("Degrees = %+v", all)
	}
	sub := Degrees(g, []int{1, 2})
	if sub.Max != 1 || sub.Avg != 1 {
		t.Fatalf("subset Degrees = %+v", sub)
	}
}

func TestPowerStretchIdentityAndMonotone(t *testing.T) {
	inst, err := udg.ConnectedInstance(9, 30, 200, 70, 0)
	if err != nil {
		t.Fatal(err)
	}
	self := PowerStretch(inst.UDG, inst.UDG, 2, StretchOptions{})
	if math.Abs(self.LengthAvg-1) > 1e-12 || math.Abs(self.LengthMax-1) > 1e-12 {
		t.Fatalf("self power stretch = %+v", self)
	}
	// The Gabriel graph has power stretch exactly 1 for beta >= 2: every
	// removed edge has a two-hop replacement of no more power.
	gg := proximity.Gabriel(inst.UDG)
	s := PowerStretch(inst.UDG, gg, 2, StretchOptions{})
	if s.LengthMax > 1+1e-9 {
		t.Fatalf("Gabriel power stretch = %v, want 1", s.LengthMax)
	}
	if s.Disconnected != 0 {
		t.Fatal("Gabriel should not disconnect")
	}
}
