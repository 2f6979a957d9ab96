// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV): Table I (topology quality measurements),
// Figures 6–7 (topology pictures), Figures 8–10 (degree, spanning ratio,
// and communication cost versus node density), and Figures 11–12 (spanning
// ratio, communication cost, and degree versus transmission radius).
//
// The defaults encode the calibrated substitutions documented in DESIGN.md:
// nodes uniform in a 200×200 square, transmission radius 60 for the density
// sweeps (n = 20..100) and Table I (n = 100, matching the paper's UDG
// average degree of ≈21), radius 20..60 for the radius sweeps (n = 500),
// and instances resampled until the unit disk graph is connected.
package experiments

import (
	"fmt"
	"io"

	"geospanner/internal/core"
	"geospanner/internal/graph"
	"geospanner/internal/ldel"
	"geospanner/internal/metrics"
	"geospanner/internal/proximity"
	"geospanner/internal/stats"
	"geospanner/internal/udg"
	"geospanner/internal/viz"
)

// Config carries the shared experiment parameters.
type Config struct {
	// Region is the side length of the square deployment area.
	Region float64
	// Trials is the number of random vertex sets per configuration.
	Trials int
	// Seed seeds the instance generator; trial i uses Seed + i.
	Seed int64
	// MaxTries bounds connectivity resampling per instance (0 = default).
	MaxTries int
	// Workers is the number of goroutines running trials concurrently
	// (0 or 1 = sequential). Results are bit-identical for any value:
	// each trial is seeded independently and trial results are folded
	// into the aggregates in trial order regardless of completion order.
	Workers int
	// Shards is the shard count of each build's simulation kernel
	// (core.WithShards); 0 = one shard. Like Workers, it changes only
	// wall-clock time, never results.
	Shards int
	// Parallel bounds the simulation kernel's worker pool
	// (core.WithParallelism); 0 = GOMAXPROCS. No effect on one shard.
	Parallel int
	// DataDir, when set, runs the churn campaign's service durably: each
	// node count logs its epochs to a write-ahead log under this root and
	// the campaign measures crash recovery (restart time, bit-exactness)
	// on top of the usual throughput numbers. Empty = not durable.
	DataDir string
	// Profile selects the churn campaign's event mix: "move", "mixed",
	// "join-heavy", or "all" to sweep every built-in profile. Empty =
	// mixed (the historical schedule).
	Profile string
}

// buildOptions returns the per-build options implied by the config.
func (c Config) buildOptions() []core.BuildOption {
	var opts []core.BuildOption
	if c.Shards > 0 {
		opts = append(opts, core.WithShards(c.Shards))
		if c.Parallel != 0 {
			opts = append(opts, core.WithParallelism(c.Parallel))
		}
	}
	return opts
}

// Defaults for the paper's setup.
const (
	DefaultRegion     = 200.0
	DefaultRadius     = 60.0
	DefaultTable1N    = 100
	DefaultFigRadiusN = 500
)

// DefaultDensities is the node-count sweep of Figures 8–10.
func DefaultDensities() []int { return []int{20, 30, 40, 50, 60, 70, 80, 90, 100} }

// DefaultRadii is the transmission-radius sweep of Figures 11–12.
func DefaultRadii() []float64 { return []float64{20, 25, 30, 35, 40, 45, 50, 55, 60} }

func (c Config) withDefaults() Config {
	if c.Region == 0 {
		c.Region = DefaultRegion
	}
	if c.Trials == 0 {
		c.Trials = 10
	}
	if c.MaxTries == 0 {
		c.MaxTries = 5000
	}
	return c
}

// instData bundles one instance with every structure measured by Table I.
type instData struct {
	inst *udg.Instance
	res  *core.Result
	rng  *graph.Graph
	gg   *graph.Graph
	flat *graph.Graph // PLDel over all nodes (the paper's LDel row)
	st   *metrics.Stretcher
}

// stretcher returns the instance's base-distance precomputation, built on
// first use and shared by every structure measured against this UDG
// (Table I measures up to seven structures per instance).
func (d *instData) stretcher() *metrics.Stretcher {
	if d.st == nil {
		d.st = metrics.NewStretcher(d.inst.UDG)
	}
	return d.st
}

func buildAll(seed int64, n int, radius float64, cfg Config, distributed bool) (*instData, error) {
	inst, err := udg.ConnectedInstance(seed, n, cfg.Region, radius, cfg.MaxTries)
	if err != nil {
		return nil, err
	}
	var res *core.Result
	if distributed {
		res, err = core.Build(inst.UDG, radius, cfg.buildOptions()...)
	} else {
		res, err = core.BuildCentralized(inst.UDG, radius)
	}
	if err != nil {
		return nil, err
	}
	flat, err := ldel.Centralized(inst.UDG, nil, radius)
	if err != nil {
		return nil, err
	}
	return &instData{
		inst: inst,
		res:  res,
		rng:  proximity.RNG(inst.UDG),
		gg:   proximity.Gabriel(inst.UDG),
		flat: flat.PLDel,
	}, nil
}

// stretchMode selects how (and whether) stretch factors are measured.
type stretchMode int

const (
	stretchNone   stretchMode = iota // backbone-only graphs: no stretch
	stretchPlain                     // flat spanning subgraphs
	stretchDirect                    // primed graphs: direct-edge rule
)

// structSpec describes one Table I row.
type structSpec struct {
	name    string
	get     func(*instData) *graph.Graph
	nodes   func(*instData) []int // nil = all nodes
	stretch stretchMode
}

// allNodes selects degree statistics over every node, matching the paper's
// Table I convention: the backbone graphs' average degree is 2·edges/n over
// all n nodes (back-solved from the readable Table I entries, e.g. CDS
// deg_avg 1.09 = 2·54.4/100), and the maximum is unaffected since
// non-backbone nodes are isolated in those graphs.
func allNodes(*instData) []int { return nil }

func table1Specs() []structSpec {
	return []structSpec{
		{"UDG", func(d *instData) *graph.Graph { return d.inst.UDG }, allNodes, stretchNone},
		{"RNG", func(d *instData) *graph.Graph { return d.rng }, allNodes, stretchPlain},
		{"GG", func(d *instData) *graph.Graph { return d.gg }, allNodes, stretchPlain},
		{"LDel", func(d *instData) *graph.Graph { return d.flat }, allNodes, stretchPlain},
		{"CDS", func(d *instData) *graph.Graph { return d.res.Conn.CDS }, allNodes, stretchNone},
		{"CDS'", func(d *instData) *graph.Graph { return d.res.Conn.CDSPrime }, allNodes, stretchDirect},
		{"ICDS", func(d *instData) *graph.Graph { return d.res.Conn.ICDS }, allNodes, stretchNone},
		{"ICDS'", func(d *instData) *graph.Graph { return d.res.Conn.ICDSPrime }, allNodes, stretchDirect},
		{"LDel(ICDS)", func(d *instData) *graph.Graph { return d.res.LDelICDS }, allNodes, stretchNone},
		{"LDel(ICDS')", func(d *instData) *graph.Graph { return d.res.LDelICDSPrime }, allNodes, stretchDirect},
	}
}

// rowAccum aggregates one structure's measurements across instances the
// way the paper does: averages of per-instance averages, maxima of
// per-instance maxima.
type rowAccum struct {
	degAvg, degMax  stats.Accumulator
	lenAvg, lenMax  stats.Accumulator
	hopAvg, hopMax  stats.Accumulator
	edges           stats.Accumulator
	measuredStretch bool
}

// specMeasure is one trial's measurement of one structure — the value a
// worker goroutine computes; folding into rowAccum happens sequentially in
// trial order so that parallel runs accumulate identically to sequential.
type specMeasure struct {
	degAvg   float64
	degMax   int
	edges    int
	stretch  metrics.StretchStats
	measured bool
}

func measureSpec(d *instData, spec structSpec) specMeasure {
	g := spec.get(d)
	deg := metrics.Degrees(g, spec.nodes(d))
	m := specMeasure{degAvg: deg.Avg, degMax: deg.Max, edges: g.NumEdges()}
	if spec.stretch == stretchNone {
		return m
	}
	m.measured = true
	m.stretch = d.stretcher().Stretch(g, metrics.StretchOptions{
		DirectEdges: spec.stretch == stretchDirect,
	})
	return m
}

func measureSpecs(d *instData, specs []structSpec) []specMeasure {
	out := make([]specMeasure, len(specs))
	for i := range specs {
		out[i] = measureSpec(d, specs[i])
	}
	return out
}

func (a *rowAccum) fold(m specMeasure) {
	a.degAvg.Add(m.degAvg)
	a.degMax.AddInt(m.degMax)
	a.edges.AddInt(m.edges)
	if !m.measured {
		return
	}
	a.measuredStretch = true
	a.lenAvg.Add(m.stretch.LengthAvg)
	a.lenMax.Add(m.stretch.LengthMax)
	a.hopAvg.Add(m.stretch.HopAvg)
	a.hopMax.Add(m.stretch.HopMax)
}

// foldSpecTrials replays per-trial measurements into fresh accumulators in
// trial order.
func foldSpecTrials(trials [][]specMeasure, nspecs int) []rowAccum {
	accums := make([]rowAccum, nspecs)
	for _, ms := range trials {
		for i := range ms {
			accums[i].fold(ms[i])
		}
	}
	return accums
}

// Table1 regenerates Table I: topology quality measurements for every
// structure at the given density.
func Table1(n int, radius float64, cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	specs := table1Specs()
	trials, err := runTrials(cfg.Workers, cfg.Trials, func(trial int) ([]specMeasure, error) {
		d, err := buildAll(cfg.Seed+int64(trial), n, radius, cfg, false)
		if err != nil {
			return nil, fmt.Errorf("table1 trial %d: %w", trial, err)
		}
		return measureSpecs(d, specs), nil
	})
	if err != nil {
		return nil, err
	}
	accums := foldSpecTrials(trials, len(specs))
	tb := stats.NewTable("graph", "deg_avg", "deg_max", "len_avg", "len_max", "hop_avg", "hop_max", "edges")
	for i, spec := range specs {
		a := &accums[i]
		row := []any{
			spec.name,
			a.degAvg.Summary().Mean,
			a.degMax.Summary().Max,
		}
		if a.measuredStretch {
			row = append(row,
				a.lenAvg.Summary().Mean, a.lenMax.Summary().Max,
				a.hopAvg.Summary().Mean, a.hopMax.Summary().Max,
			)
		} else {
			row = append(row, "-", "-", "-", "-")
		}
		row = append(row, a.edges.Summary().Mean)
		tb.AddRow(row...)
	}
	return tb, nil
}

// Fig8 regenerates Figure 8: maximum and average node degree of the six
// backbone structures versus the number of nodes (long format: one row per
// (n, structure)).
func Fig8(ns []int, radius float64, cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	tb := stats.NewTable("n", "graph", "deg_max", "deg_avg")
	specs := fig8Specs()
	for _, n := range ns {
		n := n
		trials, err := runTrials(cfg.Workers, cfg.Trials, func(trial int) ([]specMeasure, error) {
			d, err := buildAll(cfg.Seed+int64(1000*n+trial), n, radius, cfg, false)
			if err != nil {
				return nil, fmt.Errorf("fig8 n=%d trial %d: %w", n, trial, err)
			}
			return measureSpecs(d, specs), nil
		})
		if err != nil {
			return nil, err
		}
		accums := foldSpecTrials(trials, len(specs))
		for i, spec := range specs {
			tb.AddRow(n, spec.name, accums[i].degMax.Summary().Max, accums[i].degAvg.Summary().Mean)
		}
	}
	return tb, nil
}

func fig8Specs() []structSpec {
	return []structSpec{
		{"CDS", func(d *instData) *graph.Graph { return d.res.Conn.CDS }, allNodes, stretchNone},
		{"CDS'", func(d *instData) *graph.Graph { return d.res.Conn.CDSPrime }, allNodes, stretchNone},
		{"ICDS", func(d *instData) *graph.Graph { return d.res.Conn.ICDS }, allNodes, stretchNone},
		{"ICDS'", func(d *instData) *graph.Graph { return d.res.Conn.ICDSPrime }, allNodes, stretchNone},
		{"LDel(ICDS)", func(d *instData) *graph.Graph { return d.res.LDelICDS }, allNodes, stretchNone},
		{"LDel(ICDS')", func(d *instData) *graph.Graph { return d.res.LDelICDSPrime }, allNodes, stretchNone},
	}
}

func primedSpecs() []structSpec {
	return []structSpec{
		{"CDS'", func(d *instData) *graph.Graph { return d.res.Conn.CDSPrime }, allNodes, stretchDirect},
		{"ICDS'", func(d *instData) *graph.Graph { return d.res.Conn.ICDSPrime }, allNodes, stretchDirect},
		{"LDel(ICDS')", func(d *instData) *graph.Graph { return d.res.LDelICDSPrime }, allNodes, stretchDirect},
	}
}

// Fig9 regenerates Figure 9: maximum and average length and hop spanning
// ratios of the primed structures versus the number of nodes.
func Fig9(ns []int, radius float64, cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	tb := stats.NewTable("n", "graph", "len_max", "len_avg", "hop_max", "hop_avg")
	specs := primedSpecs()
	for _, n := range ns {
		n := n
		trials, err := runTrials(cfg.Workers, cfg.Trials, func(trial int) ([]specMeasure, error) {
			d, err := buildAll(cfg.Seed+int64(1000*n+trial), n, radius, cfg, false)
			if err != nil {
				return nil, fmt.Errorf("fig9 n=%d trial %d: %w", n, trial, err)
			}
			return measureSpecs(d, specs), nil
		})
		if err != nil {
			return nil, err
		}
		accums := foldSpecTrials(trials, len(specs))
		for i, spec := range specs {
			a := &accums[i]
			tb.AddRow(n, spec.name,
				a.lenMax.Summary().Max, a.lenAvg.Summary().Mean,
				a.hopMax.Summary().Max, a.hopAvg.Summary().Mean)
		}
	}
	return tb, nil
}

// commSpec names one cumulative communication-cost milestone.
type commSpec struct {
	name string
	get  func(*core.Result) core.MessageStats
}

func commSpecs() []commSpec {
	return []commSpec{
		{"CDS", func(r *core.Result) core.MessageStats { return r.MsgsCDS }},
		{"ICDS", func(r *core.Result) core.MessageStats { return r.MsgsICDS }},
		{"LDel(ICDS)", func(r *core.Result) core.MessageStats { return r.MsgsLDel }},
	}
}

// Fig10 regenerates Figure 10: maximum and average per-node communication
// cost to build CDS, ICDS, and LDel(ICDS), versus the number of nodes.
func Fig10(ns []int, radius float64, cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	tb := stats.NewTable("n", "graph", "comm_max", "comm_avg")
	specs := commSpecs()
	for _, n := range ns {
		n := n
		trials, err := runTrials(cfg.Workers, cfg.Trials, func(trial int) ([]commMeasure, error) {
			d, err := buildAll(cfg.Seed+int64(1000*n+trial), n, radius, cfg, true)
			if err != nil {
				return nil, fmt.Errorf("fig10 n=%d trial %d: %w", n, trial, err)
			}
			out := make([]commMeasure, len(specs))
			for i, spec := range specs {
				ms := spec.get(d.res)
				out[i] = commMeasure{max: ms.Max(), avg: ms.Avg()}
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		maxA := make([]stats.Accumulator, len(specs))
		avgA := make([]stats.Accumulator, len(specs))
		for _, ms := range trials {
			for i := range ms {
				maxA[i].AddInt(ms[i].max)
				avgA[i].Add(ms[i].avg)
			}
		}
		for i, spec := range specs {
			tb.AddRow(n, spec.name, maxA[i].Summary().Max, avgA[i].Summary().Mean)
		}
	}
	return tb, nil
}

// commMeasure is one trial's communication-cost measurement of one
// milestone (plus the degree statistics Figure 12 reports alongside).
type commMeasure struct {
	max    int
	avg    float64
	degMax int
	degAvg float64
}

// Fig11 regenerates Figure 11: spanning ratios of the primed structures
// versus the transmission radius at fixed n.
func Fig11(radii []float64, n int, cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	tb := stats.NewTable("radius", "graph", "len_max", "len_avg", "hop_max", "hop_avg")
	specs := primedSpecs()
	for _, r := range radii {
		r := r
		trials, err := runTrials(cfg.Workers, cfg.Trials, func(trial int) ([]specMeasure, error) {
			d, err := buildAll(cfg.Seed+int64(1000*int(r)+trial), n, r, cfg, false)
			if err != nil {
				return nil, fmt.Errorf("fig11 r=%g trial %d: %w", r, trial, err)
			}
			return measureSpecs(d, specs), nil
		})
		if err != nil {
			return nil, err
		}
		accums := foldSpecTrials(trials, len(specs))
		for i, spec := range specs {
			a := &accums[i]
			tb.AddRow(r, spec.name,
				a.lenMax.Summary().Max, a.lenAvg.Summary().Mean,
				a.hopMax.Summary().Max, a.hopAvg.Summary().Mean)
		}
	}
	return tb, nil
}

// Fig12 regenerates Figure 12: communication cost and node degree of the
// backbone structures versus the transmission radius at fixed n.
func Fig12(radii []float64, n int, cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	tb := stats.NewTable("radius", "graph", "comm_max", "comm_avg", "deg_max", "deg_avg")
	specs := commSpecs()
	degOf := func(d *instData, name string) metrics.DegreeStats {
		switch name {
		case "CDS":
			return metrics.Degrees(d.res.Conn.CDS, nil)
		case "ICDS":
			return metrics.Degrees(d.res.Conn.ICDS, nil)
		default:
			return metrics.Degrees(d.res.LDelICDS, nil)
		}
	}
	for _, r := range radii {
		r := r
		trials, err := runTrials(cfg.Workers, cfg.Trials, func(trial int) ([]commMeasure, error) {
			d, err := buildAll(cfg.Seed+int64(1000*int(r)+trial), n, r, cfg, true)
			if err != nil {
				return nil, fmt.Errorf("fig12 r=%g trial %d: %w", r, trial, err)
			}
			out := make([]commMeasure, len(specs))
			for i, spec := range specs {
				ms := spec.get(d.res)
				deg := degOf(d, spec.name)
				out[i] = commMeasure{max: ms.Max(), avg: ms.Avg(), degMax: deg.Max, degAvg: deg.Avg}
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		maxC := make([]stats.Accumulator, len(specs))
		avgC := make([]stats.Accumulator, len(specs))
		maxD := make([]stats.Accumulator, len(specs))
		avgD := make([]stats.Accumulator, len(specs))
		for _, ms := range trials {
			for i := range ms {
				maxC[i].AddInt(ms[i].max)
				avgC[i].Add(ms[i].avg)
				maxD[i].AddInt(ms[i].degMax)
				avgD[i].Add(ms[i].degAvg)
			}
		}
		for i, spec := range specs {
			tb.AddRow(r, spec.name,
				maxC[i].Summary().Max, avgC[i].Summary().Mean,
				maxD[i].Summary().Max, avgD[i].Summary().Mean)
		}
	}
	return tb, nil
}

// Fig6SVG writes the Figure 6 picture: one random unit disk graph.
func Fig6SVG(w io.Writer, seed int64, n int, radius float64, cfg Config) error {
	cfg = cfg.withDefaults()
	inst, err := udg.ConnectedInstance(seed, n, cfg.Region, radius, cfg.MaxTries)
	if err != nil {
		return err
	}
	d := viz.NewDrawing(cfg.Region)
	d.AddLayer(inst.UDG, viz.Style{Stroke: "#999999", StrokeWidth: 0.4, NodeFill: "#1f77b4", NodeRadius: 1.8})
	return d.WriteSVG(w)
}

// Fig7SVGs renders the Figure 7 panel: every derived topology of one
// instance, keyed by structure name. Dominators are drawn red, connectors
// orange, dominatees blue.
func Fig7SVGs(seed int64, n int, radius float64, cfg Config) (map[string][]byte, error) {
	cfg = cfg.withDefaults()
	d, err := buildAll(seed, n, radius, cfg, false)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	for _, spec := range table1Specs() {
		g := spec.get(d)
		draw := viz.NewDrawing(cfg.Region)
		draw.AddLayer(g, viz.Style{Stroke: "#555555", StrokeWidth: 0.5, NodeFill: "#1f77b4", NodeRadius: 1.8})
		for _, dom := range d.res.Cluster.Dominators {
			draw.MarkNode(dom, "#d62728")
		}
		for _, c := range d.res.Conn.Connectors {
			draw.MarkNode(c, "#ff7f0e")
		}
		var b writerBuf
		if err := draw.WriteSVG(&b); err != nil {
			return nil, err
		}
		out[spec.name] = b.bytes
	}
	return out, nil
}

type writerBuf struct{ bytes []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.bytes = append(w.bytes, p...)
	return len(p), nil
}
