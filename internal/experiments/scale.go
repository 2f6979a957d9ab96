package experiments

import (
	"fmt"
	"math"
	"time"

	"geospanner/internal/core"
	"geospanner/internal/stats"
	"geospanner/internal/udg"
)

// DefaultScaleNs is the node-count sweep of the kernel-scaling experiment.
func DefaultScaleNs() []int { return []int{500, 2000, 10000} }

// DefaultScaleShards is the shard-count sweep of the kernel-scaling
// experiment; its first entry, one shard, is the speed-up baseline.
func DefaultScaleShards() []int { return []int{1, 2, 4, 8} }

// scaleRadius picks a transmission radius for the scaling sweep that keeps
// the UDG average degree roughly constant (≈20, the paper's Table I
// density) as n grows in the fixed region, so per-round work scales with n
// rather than with n².
func scaleRadius(n int, region float64) float64 {
	// avg degree ≈ n·π·r²/region²; solve for r at degree 20.
	return region * math.Sqrt(20.0/(math.Pi*float64(n)))
}

// Scale measures the simulation kernel across shard counts: for each
// node count it builds one fixed instance with each shard count,
// reporting wall-clock time and speedup relative to the first shard count
// in the sweep. cfg.Parallel bounds the kernel's worker pool and is
// recorded in the kernel label; 0 leaves the GOMAXPROCS default. Outputs
// are verified identical across shard counts — the experiment fails
// loudly if any kernel configuration ever changed a result — so the table
// is purely a performance profile. Trials are averaged per cell, capped at
// 3 and at 1 for n ≥ 50k.
func Scale(ns []int, shardCounts []int, cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	tb := stats.NewTable("n", "kernel", "wall_ms", "speedup", "rounds", "msgs")
	for _, n := range ns {
		radius := scaleRadius(n, cfg.Region)
		inst, err := udg.ConnectedInstance(cfg.Seed, n, cfg.Region, radius, cfg.MaxTries)
		if err != nil {
			return nil, fmt.Errorf("scale n=%d: %w", n, err)
		}
		trials := cfg.Trials
		if trials > 3 {
			trials = 3 // a scaling point is expensive; 3 repeats suffice
		}
		if n >= 50000 && trials > 1 {
			trials = 1 // one build per cell at 100k+; a run is seconds-stable
		}
		baseMS := 0.0
		baseMsgs, baseRounds := -1, -1
		for _, p := range shardCounts {
			opts := []core.BuildOption{core.WithShards(p)}
			label := fmt.Sprintf("shards=%d", p)
			if cfg.Parallel != 0 {
				opts = append(opts, core.WithParallelism(cfg.Parallel))
				label = fmt.Sprintf("shards=%d/par=%d", p, cfg.Parallel)
			}
			var elapsed time.Duration
			var msgs, rounds int
			for trial := 0; trial < trials; trial++ {
				start := time.Now()
				res, err := core.Build(inst.UDG.Clone(), radius, opts...)
				if err != nil {
					return nil, fmt.Errorf("scale n=%d %s: %w", n, label, err)
				}
				elapsed += time.Since(start)
				msgs, rounds = res.MsgsLDel.Total(), res.Rounds.Total()
			}
			wallMS := float64(elapsed.Milliseconds()) / float64(trials)
			if baseMsgs < 0 {
				baseMS, baseMsgs, baseRounds = wallMS, msgs, rounds
			} else if msgs != baseMsgs || rounds != baseRounds {
				return nil, fmt.Errorf("scale n=%d %s: output diverged from the baseline shard count (msgs %d vs %d, rounds %d vs %d)",
					n, label, msgs, baseMsgs, rounds, baseRounds)
			}
			speedup := 1.0
			if wallMS > 0 {
				speedup = baseMS / wallMS
			}
			tb.AddRow(n, label, fmt.Sprintf("%.1f", wallMS), fmt.Sprintf("%.2f", speedup), rounds, msgs)
		}
	}
	return tb, nil
}
