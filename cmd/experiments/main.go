// Command experiments regenerates the tables and figures of the paper's
// evaluation section (Table I, Figures 6–12).
//
// Usage:
//
//	experiments -exp table1                 # Table I, paper defaults
//	experiments -exp fig8 -trials 20        # degree vs density
//	experiments -exp fig11 -n 500           # ratios vs radius
//	experiments -exp fig6 -out figs/        # SVG picture of a UDG
//	experiments -exp all -trials 5          # everything, quick pass
//
// Numeric output is an aligned text table, or CSV with -csv (one series
// point per row, ready for plotting).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"geospanner/internal/experiments"
	"geospanner/internal/obs"
	"geospanner/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "table1", "experiment: table1, fig6, fig7, fig8, fig9, fig10, fig11, fig12, ablation, routing, power, ldelk, robust, heads, loss, trace, chaos, scale, churn, soak, all")
		trials   = fs.Int("trials", 10, "random vertex sets per configuration")
		n        = fs.Int("n", 0, "node count override (0 = paper default for the experiment)")
		radius   = fs.Float64("radius", experiments.DefaultRadius, "transmission radius for fixed-radius experiments")
		region   = fs.Float64("region", experiments.DefaultRegion, "side of the square deployment region")
		seed     = fs.Int64("seed", 1, "base random seed")
		outDir   = fs.String("out", ".", "output directory for SVG figures")
		asCSV    = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		workers  = fs.Int("workers", 1, "goroutines running trials concurrently (output is identical for any value; 0 or 1 = sequential)")
		shards   = fs.Int("shards", 0, "simulation-kernel shards per build (output is identical for any value; 0 = one shard)")
		parallel = fs.Int("parallel", 0, "worker-pool bound for the simulation kernel (output is identical for any value; 0 = GOMAXPROCS; no effect on one shard)")
		traceOut = fs.String("trace-out", "", "write the merged -exp trace event stream as JSON lines to this file (replay with tools/tracecat)")
		dataDir  = fs.String("data", "", "write-ahead-log root for -exp churn: run the service durably (per-n subdirectories) and measure crash recovery")
		profile  = fs.String("profile", "mixed", "churn event-mix profile for -exp churn: move, mixed, join-heavy, or all")
		cycles   = fs.Int("cycles", 20, "kill/recover cycles of -exp soak")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Region: *region, Trials: *trials, Seed: *seed, Workers: *workers, Shards: *shards, Parallel: *parallel, DataDir: *dataDir, Profile: *profile}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation", "routing", "power", "ldelk", "robust", "heads", "loss", "trace", "chaos"}
	}
	for _, name := range names {
		if err := runOne(name, *n, *radius, cfg, *outDir, *asCSV, *traceOut, *cycles); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// writeTrace streams the merged event stream to path as JSON lines.
func writeTrace(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONL(f)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func runOne(name string, n int, radius float64, cfg experiments.Config, outDir string, asCSV bool, traceOut string, cycles int) error {
	pick := func(def int) int {
		if n > 0 {
			return n
		}
		return def
	}
	emit := func(title string, tb *stats.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Printf("== %s ==\n", title)
		if asCSV {
			fmt.Print(tb.CSV())
		} else {
			fmt.Print(tb.Render())
		}
		fmt.Println()
		return nil
	}

	switch strings.ToLower(name) {
	case "table1":
		tb, err := experiments.Table1(pick(experiments.DefaultTable1N), radius, cfg)
		return emit(fmt.Sprintf("Table I (n=%d, radius=%g, region=%g, trials=%d)",
			pick(experiments.DefaultTable1N), radius, cfg.Region, cfg.Trials), tb, err)
	case "fig6":
		path := filepath.Join(outDir, "fig6_udg.svg")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.Fig6SVG(f, cfg.Seed, pick(experiments.DefaultTable1N), radius, cfg); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	case "fig7":
		svgs, err := experiments.Fig7SVGs(cfg.Seed, pick(experiments.DefaultTable1N), radius, cfg)
		if err != nil {
			return err
		}
		for panel, data := range svgs {
			clean := strings.NewReplacer("(", "_", ")", "", "'", "p").Replace(panel)
			path := filepath.Join(outDir, "fig7_"+strings.ToLower(clean)+".svg")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
		return nil
	case "fig8":
		tb, err := experiments.Fig8(experiments.DefaultDensities(), radius, cfg)
		return emit("Figure 8: node degree vs number of nodes", tb, err)
	case "fig9":
		tb, err := experiments.Fig9(experiments.DefaultDensities(), radius, cfg)
		return emit("Figure 9: spanning ratios vs number of nodes", tb, err)
	case "fig10":
		tb, err := experiments.Fig10(experiments.DefaultDensities(), radius, cfg)
		return emit("Figure 10: communication cost vs number of nodes", tb, err)
	case "fig11":
		tb, err := experiments.Fig11(experiments.DefaultRadii(), pick(experiments.DefaultFigRadiusN), cfg)
		return emit("Figure 11: spanning ratios vs transmission radius", tb, err)
	case "fig12":
		tb, err := experiments.Fig12(experiments.DefaultRadii(), pick(experiments.DefaultFigRadiusN), cfg)
		return emit("Figure 12: communication cost and degree vs transmission radius", tb, err)
	case "ablation":
		tb, err := experiments.Ablation(pick(experiments.DefaultTable1N), radius, cfg)
		return emit("Ablation: bidirectional vs single-orientation connector election", tb, err)
	case "routing":
		tb, err := experiments.RoutingQuality(pick(experiments.DefaultTable1N), radius, cfg)
		return emit("Routing quality: delivery and hop ratios by strategy", tb, err)
	case "power":
		tb, err := experiments.PowerStretch(pick(experiments.DefaultTable1N), radius, 2, cfg)
		return emit("Power stretch factors (beta = 2)", tb, err)
	case "ldelk":
		tb, err := experiments.LDelK(pick(experiments.DefaultTable1N), radius, []int{1, 2, 3}, cfg)
		return emit("LDel^k neighborhood-parameter sweep (flat node set)", tb, err)
	case "robust":
		tb, err := experiments.Robustness(pick(experiments.DefaultTable1N), radius, cfg)
		return emit("Robustness across spatial distributions", tb, err)
	case "heads":
		tb, err := experiments.Clusterheads(pick(experiments.DefaultTable1N), radius, cfg)
		return emit("Clusterhead criteria: lowest-ID vs highest-degree", tb, err)
	case "loss":
		tb, err := experiments.Loss(pick(experiments.DefaultTable1N), radius, experiments.DefaultLossRates(), cfg)
		return emit("Loss tolerance: message overhead and round inflation vs loss rate", tb, err)
	case "chaos":
		tb, failures, err := experiments.Chaos(experiments.DefaultChaosIntensities(), cfg)
		if err != nil {
			return err
		}
		if err := emit(fmt.Sprintf("Chaos campaign: degraded-mode contract under randomized fault schedules (trials=%d per intensity)",
			cfg.Trials), tb, nil); err != nil {
			return err
		}
		origEvents, shrunkEvents, evals, err := experiments.ShrinkSelfTest(cfg.Seed)
		if err != nil {
			return fmt.Errorf("shrink self-test: %w", err)
		}
		fmt.Printf("shrink self-test: %d events -> %d (in %d evaluations)\n", origEvents, shrunkEvents, evals)
		if len(failures) > 0 {
			paths, err := experiments.SaveFailures(outDir, failures)
			if err != nil {
				return fmt.Errorf("saving chaos failures: %w", err)
			}
			return fmt.Errorf("chaos: %d schedule(s) broke the degraded-mode contract; shrunk reproductions: %v", len(failures), paths)
		}
		fmt.Println("chaos: every schedule survived; no failures to shrink")
		return nil
	case "scale":
		ns := experiments.DefaultScaleNs()
		if n > 0 {
			ns = []int{n}
		}
		tb, err := experiments.Scale(ns, experiments.DefaultScaleShards(), cfg)
		trials := cfg.Trials
		if trials == 0 {
			trials = 10 // Config default
		}
		if trials > 3 {
			trials = 3 // Scale caps repeats per cell
		}
		return emit(fmt.Sprintf("Kernel scaling: simulation kernel by shard count (region=%g, trials=%d)",
			cfg.Region, trials), tb, err)
	case "churn":
		ns := experiments.DefaultChurnNs()
		if n > 0 {
			ns = []int{n}
		}
		tb, err := experiments.Churn(ns, cfg)
		return emit(fmt.Sprintf("Churn campaign: live topology service under synthetic churn (region=%g, seed=%d, profile=%s)",
			cfg.Region, cfg.Seed, cfg.Profile), tb, err)
	case "soak":
		tb, err := experiments.Soak(cycles, cfg)
		return emit(fmt.Sprintf("Storage soak: kill/recover churn cycles with rotation, retention, and fault injection (cycles=%d, seed=%d)",
			cycles, cfg.Seed), tb, err)
	case "trace":
		tb, events, err := experiments.Trace(pick(experiments.DefaultTable1N), radius, cfg)
		if err != nil {
			return err
		}
		if traceOut != "" {
			if err := writeTrace(traceOut, events); err != nil {
				return err
			}
		}
		return emit(fmt.Sprintf("Trace: per-stage observability rollup (n=%d, radius=%g, trials=%d, %d events)",
			pick(experiments.DefaultTable1N), radius, cfg.Trials, len(events)), tb, nil)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}
