package experiments

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"geospanner/internal/obs"
	"geospanner/internal/serve"
	"geospanner/internal/stats"
	"geospanner/internal/udg"
)

// DefaultChurnNs is the node-count sweep of the churn campaign. The large
// point is the service-scale measurement (sustained events/sec and query
// QPS at n=10k); the small one is cheap enough to verify end to end.
func DefaultChurnNs() []int { return []int{1000, 10000} }

// churnEpochs and churnReaders shape the campaign: epochs per node count,
// and concurrent reader goroutines issuing route queries against the
// current snapshot while the writer applies batches.
// churnBaselineEpochs sizes the short patching-disabled pass that
// measures the before side of the recompute-ratio comparison — with
// witness patching off the ratio is flat across epochs (every structural
// batch recomputes), so a few epochs suffice to price one.
const (
	churnEpochs         = 30
	churnBaselineEpochs = 4
	churnReaders        = 4
)

// churnBatch sizes a campaign epoch: small, frequent batches — the
// steady-state regime of a live topology service, and the one witness
// patching targets (a batch touching most of the network is what the
// patch-scope fallback exists for and is measured by the baseline pass).
func churnBatch(n int) int {
	if b := n / 1000; b > 4 {
		return b
	}
	return 4
}

// Churn is the live-service campaign: for each profile and node count it
// builds a connected instance at constant average degree (≈20, like the
// scaling sweep), starts an in-process topology service, and applies
// churnEpochs synthetic churn batches while churnReaders goroutines
// hammer route queries against the epoch snapshots. It reports the
// writer's sustained event throughput, the concurrent query throughput,
// the route success fraction, and the maintenance profile — and, per
// cell, a short baseline pass with witness patching disabled under the
// same reader load, so ratio_off/eps_off versus recompute_ratio/
// events_per_sec is a before/after comparison of the incremental
// maintenance path on identical schedules. For n ≤ 2000 the final
// maintained backbone is re-verified against the full degraded-mode
// invariant set.
//
// With cfg.DataDir the service runs durably: every epoch is fsync'd to a
// write-ahead log before it is acknowledged — so events_per_sec then
// measures the durable write path — and after the campaign the server is
// abandoned without shutdown and recovered from the directory alone. The
// wal_mb, recover_ms and replayed columns report the log size, the wall
// time of the crash-restart, and the epochs replayed; recovery must be
// bit-exact (equal epoch fingerprints) or the campaign fails.
func Churn(ns []int, cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	profs, err := churnProfiles(cfg.Profile)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("profile", "n", "epochs", "events", "applied", "events_per_sec", "qps", "route_ok", "ratio_off", "eps_off", "recompute_ratio", "patched", "patch_fallbacks", "fallbacks", "role_changes", "alive_final", "wal_mb", "recover_ms", "replayed")
	for _, prof := range profs {
		for _, n := range ns {
			if err := churnOne(tb, n, prof, cfg); err != nil {
				return nil, err
			}
		}
	}
	return tb, nil
}

// churnProfiles resolves cfg.Profile: empty = mixed (the historical
// schedule), "all" = every built-in profile, otherwise one by name.
func churnProfiles(name string) ([]serve.Profile, error) {
	switch name {
	case "":
		return []serve.Profile{serve.ProfileMixed}, nil
	case "all":
		return serve.Profiles(), nil
	default:
		p, ok := serve.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("churn: unknown profile %q (want move, mixed, join-heavy or all)", name)
		}
		return []serve.Profile{p}, nil
	}
}

// churnPassResult is one measured service run.
type churnPassResult struct {
	srv             *serve.Server
	st              serve.Stats
	secs            float64
	queries, routed int64
}

// churnPass drives one service instance through `epochs` scheduled
// batches under the campaign's concurrent reader load. Both the baseline
// (patching disabled) and the measured pass run through this function, so
// their throughput numbers are directly comparable.
func churnPass(inst *udg.Instance, radius float64, prof serve.Profile, cfg Config, epochs, batch int, opts ...serve.Option) (*churnPassResult, error) {
	srv, err := serve.New(inst.Points, radius, opts...)
	if err != nil {
		return nil, err
	}
	sched := serve.NewSchedulerProfile(cfg.Seed+1, inst.Points, cfg.Region, radius, prof)

	var (
		stop            = make(chan struct{})
		wg              sync.WaitGroup
		queries, routed atomic.Int64
	)
	for r := 0; r < churnReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(100+r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ep := srv.Current()
				src, dst := pickAlive(rng, ep), pickAlive(rng, ep)
				if src < 0 || dst < 0 || src == dst {
					continue
				}
				if _, err := ep.Route(src, dst); err == nil {
					routed.Add(1)
				}
				queries.Add(1)
			}
		}(r)
	}

	start := time.Now()
	for epoch := 0; epoch < epochs; epoch++ {
		if _, err := srv.Apply(sched.Batch(batch)); err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("epoch %d: %w", epoch+1, err)
		}
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	return &churnPassResult{
		srv:     srv,
		st:      srv.Stats(),
		secs:    elapsed.Seconds(),
		queries: queries.Load(),
		routed:  routed.Load(),
	}, nil
}

// churnOne runs the campaign for one (profile, n) cell: a short baseline
// pass with a negative scope cap, so every structural epoch rebuilds from
// scratch (the "before" recompute ratio and throughput), then the full measured pass with patching at its default
// scope cap.
func churnOne(tb *stats.Table, n int, prof serve.Profile, cfg Config) error {
	radius := scaleRadius(n, cfg.Region)
	inst, err := udg.ConnectedInstance(cfg.Seed, n, cfg.Region, radius, cfg.MaxTries)
	if err != nil {
		return fmt.Errorf("churn n=%d: %w", n, err)
	}
	batch := churnBatch(n)

	base, err := churnPass(inst, radius, prof, cfg, churnBaselineEpochs, batch, serve.WithPatchScope(-1))
	if err != nil {
		return fmt.Errorf("churn n=%d baseline: %w", n, err)
	}

	metrics := obs.NewMetrics()
	opts := []serve.Option{serve.WithTracer(metrics)}
	walDir := ""
	if cfg.DataDir != "" {
		walDir = filepath.Join(cfg.DataDir, fmt.Sprintf("n%d-%s", n, prof.Name))
		opts = append(opts, serve.WithWAL(walDir))
	}
	run, err := churnPass(inst, radius, prof, cfg, churnEpochs, batch, opts...)
	if err != nil {
		return fmt.Errorf("churn n=%d: %w", n, err)
	}
	srv, st := run.srv, run.st

	if n <= 2000 {
		conn, pldel, err := srv.State().Structures()
		if err != nil {
			return fmt.Errorf("churn n=%d: final structures: %w", n, err)
		}
		if err := srv.State().VerifyBackbone(conn, pldel); err != nil {
			return fmt.Errorf("churn n=%d: final backbone invalid: %w", n, err)
		}
	}

	routeOK := 0.0
	if run.queries > 0 {
		routeOK = float64(run.routed) / float64(run.queries)
	}

	// Durability half of the campaign: abandon the server without
	// shutdown (the file state a SIGKILL leaves) and time the crash
	// restart, asserting bit-exact recovery.
	walMB, recoverMS, replayed := "-", "-", "-"
	if walDir != "" {
		walMB = fmt.Sprintf("%.2f", float64(st.WALSegmentBytes)/(1<<20))
		recStart := time.Now()
		rec, info, err := serve.Recover(walDir)
		if err != nil {
			return fmt.Errorf("churn n=%d: recover: %w", n, err)
		}
		recoverMS = fmt.Sprintf("%.0f", time.Since(recStart).Seconds()*1e3)
		replayed = fmt.Sprintf("%d", info.Replayed)
		if got, want := rec.Current().Fingerprint(), srv.Current().Fingerprint(); got != want {
			return fmt.Errorf("churn n=%d: recovery not bit-exact: fingerprint %x, want %x", n, got, want)
		}
		rec.Close()
	}

	tb.AddRow(prof.Name, n, st.Epochs, st.Events, st.Applied,
		fmt.Sprintf("%.0f", float64(st.Applied)/run.secs),
		fmt.Sprintf("%.0f", float64(run.queries)/run.secs),
		fmt.Sprintf("%.3f", routeOK),
		fmt.Sprintf("%.2f", base.st.RecomputeRatio),
		fmt.Sprintf("%.0f", float64(base.st.Applied)/base.secs),
		fmt.Sprintf("%.2f", st.RecomputeRatio),
		st.PatchedEpochs, st.PatchFallbacks,
		st.Fallbacks, st.RoleChanges, srv.Current().Topology().Alive,
		walMB, recoverMS, replayed)
	return nil
}

// pickAlive rejection-samples an alive node of the epoch (at least a
// quarter of the nodes stay alive under the scheduler's quorum rule, so
// the loop is short); -1 when the epoch has no alive nodes.
func pickAlive(rng *rand.Rand, ep *serve.Epoch) int {
	for tries := 0; tries < 64; tries++ {
		if v := rng.Intn(ep.N()); ep.Alive(v) {
			return v
		}
	}
	for v := 0; v < ep.N(); v++ {
		if ep.Alive(v) {
			return v
		}
	}
	return -1
}
