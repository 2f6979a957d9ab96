package geospanner

// Benchmark harness: one benchmark per table/figure of the paper (the
// cmd/experiments tool prints the actual rows; these measure the cost of
// regenerating each), plus construction-cost ablations for the substrate
// layers called out in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem ./...

import (
	"fmt"
	"io"
	"math"
	"testing"

	"geospanner/internal/cluster"
	"geospanner/internal/connector"
	"geospanner/internal/core"
	"geospanner/internal/delaunay"
	"geospanner/internal/experiments"
	"geospanner/internal/ldel"
	"geospanner/internal/maintain"
	"geospanner/internal/metrics"
	"geospanner/internal/proximity"
	"geospanner/internal/routing"
	"geospanner/internal/udg"
)

func benchCfg(trials int) experiments.Config {
	return experiments.Config{Region: 200, Trials: trials, Seed: 1}
}

func benchInstance(b *testing.B, seed int64, n int, radius float64) *udg.Instance {
	b.Helper()
	inst, err := udg.ConnectedInstance(seed, n, 200, radius, 0)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkTable1 regenerates Table I (one vertex set per iteration:
// all ten structures plus stretch metrics at n=100, R=60).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(100, 60, benchCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Sharded measures the distributed pipeline behind
// Table I at a scale where kernel cost dominates (n=2000 at constant
// average degree ≈ 20) across shard counts and worker-pool widths.
// Every variant runs the identical instance (core.Build never mutates
// its input graph) and each sub-benchmark first checks its output
// against the default build's Result, so the numbers are strictly
// comparable.
//
// Reading the results: shards1 is the default kernel and the baseline.
// The parallel speedup proper is shardsP/parK vs shards1 on a
// multi-core runner (par1 rows pin the pool to one worker as the
// like-for-like baseline). CI's bench-smoke job runs this benchmark
// for a single iteration and feeds benchjson -compare.
func BenchmarkTable1Sharded(b *testing.B) {
	const n = 2000
	radius := 200 * math.Sqrt(20/(math.Pi*float64(n)))
	inst := benchInstance(b, 23, n, radius)
	want, err := core.Build(inst.UDG, inst.Radius)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opts []core.BuildOption
	}{
		{"shards1", []core.BuildOption{core.WithShards(1)}},
	}
	for _, p := range []int{2, 4, 8} {
		variants = append(variants,
			struct {
				name string
				opts []core.BuildOption
			}{fmt.Sprintf("shards%d/par1", p),
				[]core.BuildOption{core.WithShards(p), core.WithParallelism(1)}},
			struct {
				name string
				opts []core.BuildOption
			}{fmt.Sprintf("shards%d/par%d", p, p),
				[]core.BuildOption{core.WithShards(p), core.WithParallelism(p)}})
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			got, err := core.Build(inst.UDG, inst.Radius, v.opts...)
			if err != nil {
				b.Fatal(err)
			}
			if got.Rounds != want.Rounds || !got.LDelICDS.Equal(want.LDelICDS) {
				b.Fatalf("%s: output diverges from the default build", v.name)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(inst.UDG, inst.Radius, v.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6 renders the Figure 6 unit-disk-graph picture.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig6SVG(io.Discard, 1, 100, 60, benchCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 renders the Figure 7 topology panel (all ten structures).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7SVGs(1, 100, 60, benchCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 measures one density point of Figure 8 (degrees at n=60).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8([]int{60}, 60, benchCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 measures one density point of Figure 9 (spanning ratios).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9([]int{60}, 60, benchCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 measures one density point of Figure 10 (distributed
// build with message accounting).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10([]int{60}, 60, benchCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11 measures one radius point of Figure 11. The harness runs
// n=500; the benchmark uses n=200 to keep iterations short.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11([]float64{40}, 200, benchCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12 measures one radius point of Figure 12 at n=200.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12([]float64{40}, 200, benchCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// Construction ablations: where does the pipeline spend its time, and how
// does the distributed protocol overhead compare to the centralized
// reference?

func BenchmarkBuildDistributed(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		inst := benchInstance(b, int64(n), n, 60)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(inst.UDG, inst.Radius); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuildCentralized(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		inst := benchInstance(b, int64(n), n, 60)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildCentralized(inst.UDG, inst.Radius); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkClustering(b *testing.B) {
	inst := benchInstance(b, 3, 100, 60)
	b.Run("distributed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cluster.Run(inst.UDG, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("centralized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster.Centralized(inst.UDG)
		}
	})
}

func BenchmarkConnectorElection(b *testing.B) {
	inst := benchInstance(b, 3, 100, 60)
	cl := cluster.Centralized(inst.UDG)
	b.Run("distributed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := connector.Run(inst.UDG, cl, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("centralized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			connector.Centralized(inst.UDG, cl)
		}
	})
}

func BenchmarkLDelFlat(b *testing.B) {
	inst := benchInstance(b, 3, 100, 60)
	for i := 0; i < b.N; i++ {
		if _, err := ldel.Centralized(inst.UDG, nil, inst.Radius); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelaunay(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		inst := benchInstance(b, int64(n), n, 200)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := delaunay.Triangulate(inst.Points); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUDGBuild(b *testing.B) {
	inst := benchInstance(b, 5, 500, 60)
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			udg.Build(inst.Points, 60)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			udg.BuildBruteForce(inst.Points, 60)
		}
	})
}

func BenchmarkStretchMetric(b *testing.B) {
	inst := benchInstance(b, 7, 100, 60)
	gg := proximity.Gabriel(inst.UDG)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Stretch(inst.UDG, gg, metrics.StretchOptions{})
	}
}

func BenchmarkRouteGFG(b *testing.B) {
	inst := benchInstance(b, 9, 150, 50)
	res, err := core.BuildCentralized(inst.UDG, inst.Radius)
	if err != nil {
		b.Fatal(err)
	}
	bb := res.Conn.Backbone
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := bb[i%len(bb)]
		d := bb[(i*7+3)%len(bb)]
		if s == d {
			continue
		}
		if _, err := routing.RouteGFG(res.LDelICDS, s, d, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(n int) string {
	switch {
	case n < 100:
		return "n050"
	case n < 200:
		return "n100"
	case n < 500:
		return "n200"
	case n < 1000:
		return "n500"
	default:
		return "n1000"
	}
}

// Extension benchmarks: the ablation, routing-quality, and maintenance
// experiments.

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(60, 60, benchCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoutingQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RoutingQuality(40, 60, benchCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowerStretch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PowerStretch(60, 60, 2, benchCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLDelKSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LDelK(60, 60, []int{1, 2}, benchCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaintainFailRecover(b *testing.B) {
	inst := benchInstance(b, 13, 150, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := maintain.New(inst.Points, inst.Radius)
		for v := 0; v < 30; v++ {
			if _, err := s.Fail(v); err != nil {
				b.Fatal(err)
			}
		}
		for v := 0; v < 30; v++ {
			if _, err := s.Recover(v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRouteDiscovery(b *testing.B) {
	inst := benchInstance(b, 19, 150, 60)
	res, err := core.BuildCentralized(inst.UDG, inst.Radius)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % inst.UDG.N()
		d := (i*13 + 7) % inst.UDG.N()
		if s == d {
			continue
		}
		if _, err := routing.DiscoverRoute(inst.UDG, res.Conn.InBackbone, s, d, 0); err != nil {
			b.Fatal(err)
		}
	}
}
