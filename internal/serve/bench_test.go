package serve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geospanner/internal/maintain"
	"geospanner/internal/udg"
)

// benchRadius mirrors the experiment sweeps: shrink the radius with n so
// average degree stays ≈20 and per-epoch cost tracks topology size
// rather than density blowup.
func benchRadius(n int, region float64) float64 {
	return region * math.Sqrt(20/(math.Pi*float64(n)))
}

// BenchmarkEpochApply measures the service's write path end to end: one
// maintenance epoch — a churn batch through maintain.State, the backbone
// patch or recompute, and the copy-on-write snapshot build that publishes
// the new epoch to readers. The grid splits the cost three ways: network
// size, event mix (one sub-benchmark per churn profile, so move-dominated
// and membership-dominated batches are costed separately), and
// maintenance mode — "patch" runs the witness-scoped incremental path
// with its default scope cap, "rebuild" disables it (every epoch derives
// the structures from scratch), on identical schedules. The cap decides
// per epoch, so a patch row is a patch-vs-rebuild comparison only where
// its epochs patch: each row reports patched/op, the share of its epochs
// absorbed by a patch. At n500 the move and mixed batches exceed the cap
// on almost every epoch (patched/op 0 at -benchtime 4x, under 0.1 at
// 30x), so both modes run the rebuild there nearly throughout.
func BenchmarkEpochApply(b *testing.B) {
	modes := []struct {
		name  string
		scope float64
	}{
		{"patch", maintain.DefaultPatchScopeFraction},
		{"rebuild", -1},
	}
	for _, n := range []int{500, 2000} {
		for _, prof := range Profiles() {
			for _, mode := range modes {
				b.Run(fmt.Sprintf("n%d/%s/%s", n, prof.Name, mode.name), func(b *testing.B) {
					const region = 200.0
					radius := benchRadius(n, region)
					inst, err := udg.ConnectedInstance(21, n, region, radius, 0)
					if err != nil {
						b.Fatal(err)
					}
					srv, err := New(inst.Points, radius, WithPatchScope(mode.scope))
					if err != nil {
						b.Fatal(err)
					}
					sched := NewSchedulerProfile(22, inst.Points, region, radius, prof)
					batch := max(4, n/500)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := srv.Apply(sched.Batch(batch)); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(srv.Stats().PatchedEpochs)/float64(b.N), "patched/op")
				})
			}
		}
	}
}

// BenchmarkRouteQuery measures the read path: one route query against a
// pinned epoch snapshot, exactly what each reader goroutine does between
// copy-on-write swaps.
func BenchmarkRouteQuery(b *testing.B) {
	const (
		n      = 2000
		region = 200.0
	)
	radius := benchRadius(n, region)
	inst, err := udg.ConnectedInstance(21, n, region, radius, 0)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(inst.Points, radius)
	if err != nil {
		b.Fatal(err)
	}
	ep := srv.Current()
	alive := make([]int, 0, n)
	for v := 0; v < ep.N(); v++ {
		if ep.Alive(v) {
			alive = append(alive, v)
		}
	}
	rng := rand.New(rand.NewSource(23))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := alive[rng.Intn(len(alive))]
		dst := alive[rng.Intn(len(alive))]
		if src == dst {
			continue
		}
		if _, err := ep.Route(src, dst); err != nil {
			b.Fatalf("route %d->%d: %v", src, dst, err)
		}
	}
}
