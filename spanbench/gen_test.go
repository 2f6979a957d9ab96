package main

import (
	"math/rand"
	"reflect"
	"testing"

	"geospanner"
	"geospanner/internal/maintain"
)

func TestGeneratorIsSeeded(t *testing.T) {
	spec := churnSpec{n: 300, batch: 6, mix: mixMixed, recoveries: 2, build: coldSpec{n: 100}}
	a, b := genChurn(spec, 7, 40, 3), genChurn(spec, 7, 40, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different sets of inputs")
	}
	c := genChurn(spec, 8, 40, 3)
	if reflect.DeepEqual(a.batches, c.batches) {
		t.Fatal("two seeds gave the same churn batches")
	}
	if reflect.DeepEqual(a.instances, c.instances) {
		t.Fatal("two seeds gave the same cold-build instances")
	}

	srv, err := geospanner.NewServer(a.pts, a.radius)
	if err != nil {
		t.Fatal(err)
	}
	comps := srv.Current().Report.Components
	p1, err := genPairs(a.pairSeed, spec.n, 500, comps)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := genPairs(a.pairSeed, spec.n, 500, comps)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("one seed gave two different pair lists")
	}
	for _, p := range p1 {
		if p[0] == p[1] {
			t.Fatalf("pair %v routes a node to itself", p)
		}
	}
}

// TestGeneratedEventsAreAccepted applies long generated schedules of both
// mixes and requires that the program rejects none of their events.
func TestGeneratedEventsAreAccepted(t *testing.T) {
	for _, mix := range []eventMix{mixMove, mixMixed} {
		rng := rand.New(rand.NewSource(3))
		pts := genPoints(rng, 200)
		radius := radiusFor(len(pts))
		st := maintain.New(append([]geospanner.Point(nil), pts...), radius)
		g := newChurnGen(rng, pts, radius, mix)
		for e := 0; e < 300; e++ {
			if bs := st.ApplyBatch(g.batch(10), maintain.DefaultFallbackFraction); bs.Rejected != 0 {
				t.Fatalf("mix %+v, epoch %d: %d events rejected", mix, e, bs.Rejected)
			}
		}
		if st.AliveCount()*4 < len(pts)-1 {
			t.Fatalf("mix %+v: only %d of %d nodes left alive", mix, st.AliveCount(), len(pts))
		}
	}
}

// TestEventMixIsExactPerBlock checks the stratified draw: while the quorum
// holds, every block of 100 events holds exactly the mix's moves, and the
// alive count after five blocks differs between seeds only by joins drawn
// before any node had died (which fall through to leaves).
func TestEventMixIsExactPerBlock(t *testing.T) {
	for _, mix := range []eventMix{mixMove, mixMixed} {
		var alive []int
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pts := genPoints(rng, 400)
			g := newChurnGen(rng, pts, radiusFor(len(pts)), mix)
			for block := 0; block < 5; block++ {
				moves := 0
				for _, ev := range g.batch(100) {
					if ev.Kind == maintain.EventMove {
						moves++
					}
				}
				if moves != mix.move {
					t.Fatalf("mix %+v seed %d block %d: %d moves, want %d", mix, seed, block, moves, mix.move)
				}
			}
			alive = append(alive, g.nAlive)
		}
		lo, hi := alive[0], alive[0]
		for _, a := range alive {
			lo, hi = min(lo, a), max(hi, a)
		}
		if hi-lo > 2*(mix.join-mix.crash) {
			t.Fatalf("mix %+v: alive counts %v after five blocks", mix, alive)
		}
	}
}
