// Package geospanner is the public API of a full reproduction of
// "Geometric Spanners for Wireless Ad Hoc Networks" (Yu Wang, Xiang-Yang
// Li, ICDCS 2002): localized construction of a planar, bounded-degree,
// hop-and-length spanner backbone for unit-disk-graph wireless networks.
//
// The pipeline integrates a connected dominating set (lowest-ID MIS
// clustering plus distributed connector election) with the localized
// Delaunay triangulation, producing the paper's LDel(ICDS) topology. All
// protocols run on a deterministic synchronous message-passing simulator
// with per-node communication accounting; centralized reference
// implementations of every phase cross-validate the distributed ones.
//
// Quick start:
//
//	inst, err := geospanner.GenerateInstance(1, 100, 200, 100)
//	// handle err
//	res, err := geospanner.Build(inst.UDG, inst.Radius)
//	// handle err
//	fmt.Println(res.LDelICDS.NumEdges(), res.MsgsLDel.Max())
//
// Build is options-first: the variadic tail accepts WithMaxRounds (bound
// a wedged run and get a *QuiescenceError), WithFaults and
// WithReliability (run the construction loss-tolerantly on a faulty
// channel), and WithTracer (observe every stage, round, message, and
// state transition through a structured-event sink — see NewRingTracer,
// NewJSONLTracer, NewMetricsTracer). BuildMany runs a batch of instances,
// in parallel under WithWorkers, with bit-identical results for any
// worker count. WithShards parallelizes within one instance instead: the
// simulator partitions the nodes into p shards (one by default) that
// deliver and Tick concurrently with deterministic merges, again
// bit-identical for any p.
//
// When the network is damaged, WithPartialResults trades the all-or-nothing
// contract for graceful degradation: Build partitions the live graph, runs
// the pipeline per connected component, and returns partial structures plus
// a HealthReport instead of an error. WithDeadline and WithContext bound a
// build by wall clock or caller cancellation; VerifyPartial checks the
// paper's invariants on whatever completed.
//
// See the examples directory for runnable scenarios and cmd/experiments
// for the harness that regenerates every table and figure of the paper.
package geospanner

import (
	"context"
	"fmt"
	"io"
	"time"

	"geospanner/internal/core"
	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/health"
	"geospanner/internal/ldel"
	"geospanner/internal/maintain"
	"geospanner/internal/metrics"
	"geospanner/internal/obs"
	"geospanner/internal/proximity"
	"geospanner/internal/routing"
	"geospanner/internal/sim"
	"geospanner/internal/udg"
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Point is a point in the plane.
	Point = geom.Point
	// Graph is an undirected geometric graph.
	Graph = graph.Graph
	// Edge is an undirected graph edge.
	Edge = graph.Edge
	// Instance is a generated random network instance.
	Instance = udg.Instance
	// Result is the output of the backbone pipeline.
	Result = core.Result
	// MessageStats aggregates per-node communication costs.
	MessageStats = core.MessageStats
	// StretchStats reports spanner stretch factors.
	StretchStats = metrics.StretchStats
	// StretchOptions configures stretch measurement.
	StretchOptions = metrics.StretchOptions
	// TriKey identifies a triangle by sorted vertex IDs.
	TriKey = ldel.TriKey
)

// Observability and simulator types, re-exported so every sim.Option
// capability is reachable from the public options API.
type (
	// Option configures Build and BuildMany. Options are re-exported
	// wrappers over the internal simulator machinery; the zero option set
	// reproduces the historical Build behavior exactly.
	Option = core.BuildOption
	// Tracer is the structured-event sink contract of WithTracer.
	Tracer = obs.Tracer
	// Event is one structured trace record.
	Event = obs.Event
	// TraceRing is the in-memory ring-buffer sink.
	TraceRing = obs.Ring
	// TraceJSONL is the JSON-lines streaming sink (one event per line),
	// replayable with tools/tracecat.
	TraceJSONL = obs.JSONL
	// TraceMetrics is the rollup sink: per-stage counters and round,
	// message, and wall-time histograms.
	TraceMetrics = obs.Metrics
	// FaultModel decides the fate of every link-level delivery.
	FaultModel = sim.FaultModel
	// ReliableConfig tunes the ack/retransmission shim of
	// WithReliability.
	ReliableConfig = sim.ReliableConfig
	// QuiescenceError diagnoses a run that exhausted its round budget:
	// the stuck nodes, their self-reported reasons, and the in-flight
	// traffic. Match with errors.As.
	QuiescenceError = sim.QuiescenceError
	// ReliableStats aggregates the ack/retransmission shim's activity
	// (acks, retransmissions, abandoned slots); Result.Reliable carries
	// the per-build rollup.
	ReliableStats = sim.ReliableStats
)

// Degraded-mode types: the structured health record of a partition-aware
// build (WithPartialResults, WithDeadline, WithContext).
type (
	// HealthReport is Result.Health on partial builds: dead and uncovered
	// nodes, live components with per-component completion, stuck-stage
	// diagnoses, and the loss-tolerance give-up ledger.
	HealthReport = health.Report
	// HealthComponent describes one live component and how far its
	// pipeline got.
	HealthComponent = health.Component
	// HealthStuck names a node that had not finished a stage when the
	// stage gave up, with its self-diagnosis.
	HealthStuck = health.Stuck
	// HealthGiveUp is one give-up ledger entry: a node that abandoned
	// retransmission slots.
	HealthGiveUp = health.GiveUp
)

// Routing and simulation errors, re-exported for errors.Is matching.
var (
	// ErrGreedyStuck reports a greedy-forwarding local minimum.
	ErrGreedyStuck = routing.ErrGreedyStuck
	// ErrNoRoute reports routing failure (no progress possible).
	ErrNoRoute = routing.ErrNoRoute
	// ErrNotQuiescent reports a round budget exhausted before quiescence;
	// the concrete error is always a *QuiescenceError.
	ErrNotQuiescent = sim.ErrNotQuiescent
)

// WithMaxRounds bounds each protocol stage's simulator rounds (0, the
// default, picks the simulator's own budget of 10·n + 50). A run that
// exceeds the bound fails with a *QuiescenceError instead of spinning.
func WithMaxRounds(r int) Option { return core.WithMaxRounds(r) }

// WithFaults runs every stage on a faulty channel. Compose models with
// the Bernoulli, Gilbert, CrashAt, Duplicate and ComposeFaults
// constructors.
func WithFaults(fm FaultModel) Option { return core.WithFaults(fm) }

// WithReliability wraps every protocol in the ack/retransmission shim:
// under any fault model that delivers each message eventually, the
// construction's outputs are bit-identical to the lossless run.
func WithReliability(cfg ReliableConfig) Option { return core.WithReliability(cfg) }

// WithTracer attaches a structured-event sink observing the run: stage
// boundaries with wall time, per-round message batches, sends, deliveries
// and drops, protocol state transitions, and retransmission bookkeeping.
// A nil tracer (the default) is free; a traced run is bit-identical to an
// untraced one.
func WithTracer(t Tracer) Option { return core.WithTracer(t) }

// WithWorkers sets the number of goroutines BuildMany uses (0 or 1 =
// sequential). Results and merged traces are bit-identical for any value.
func WithWorkers(w int) Option { return core.WithWorkers(w) }

// WithShards runs every protocol stage of the simulation kernel on p
// shards: within each round, message delivery and per-node Ticks execute
// concurrently across p contiguous node partitions, with shard-local
// buffers merged deterministically. All outputs — graphs, message
// counters, rounds, trace events — are bit-identical to the default
// one-shard run for any p, so sharding is purely a performance knob.
// Where WithWorkers parallelizes across instances (BuildMany), WithShards
// parallelizes within one instance; the two compose. p <= 0 (the default)
// means one shard.
func WithShards(p int) Option { return core.WithShards(p) }

// WithParallelism bounds the worker pool the simulation kernel runs its
// shards on: k workers execute the p shards of each deliver and Tick
// phase (k <= 0, the default, means GOMAXPROCS; k is clamped to the
// shard count). Like WithShards it never changes any output — only
// wall-clock time — and it has no effect on a one-shard build. Use it to
// stop a sharded build from oversubscribing a machine that is also
// running BuildMany workers or other loads.
func WithParallelism(k int) Option { return core.WithParallelism(k) }

// WithPartialResults turns network damage from an error into a partial
// answer: Build detects the fault model's crashed nodes, partitions the
// live unit disk graph into connected components, runs the full pipeline
// independently on each, and returns the merged structures together with a
// HealthReport (Result.Health) naming every dead node, uncovered node,
// stuck stage, and abandoned retransmission slot. The paper's invariants
// hold per complete component (see VerifyPartial), and the output is
// bit-identical across repeated runs and BuildMany worker counts.
func WithPartialResults() Option { return core.WithPartialResults() }

// WithContext cancels the build when ctx does: a partial build records the
// cancellation in its HealthReport and returns what it finished; a full
// build fails with an error unwrapping to the context's.
func WithContext(ctx context.Context) Option { return core.WithContext(ctx) }

// WithDeadline bounds the build's wall-clock time and implies
// WithPartialResults: when the deadline expires, Build returns the
// components completed so far as a partial result instead of an error.
func WithDeadline(d time.Duration) Option { return core.WithDeadline(d) }

// VerifyPartial checks the paper's invariants (planarity, domination, CDS
// connectivity, spanning) on every complete component of a partial build,
// plus the global separation property that no produced edge touches a dead
// node or crosses components. A nil error means the degraded result is
// sound.
func VerifyPartial(res *Result) error { return core.VerifyPartial(res) }

// NewRingTracer returns an in-memory sink keeping the last cap events.
func NewRingTracer(cap int) *TraceRing { return obs.NewRing(cap) }

// NewJSONLTracer returns a sink streaming events to w as JSON lines.
// Call Flush (or Close) after the run.
func NewJSONLTracer(w io.Writer) *TraceJSONL { return obs.NewJSONL(w) }

// NewMetricsTracer returns a rollup sink aggregating per-stage counters
// and histograms.
func NewMetricsTracer() *TraceMetrics { return obs.NewMetrics() }

// MultiTracer fans events out to several sinks.
func MultiTracer(sinks ...Tracer) Tracer { return obs.Multi(sinks...) }

// Fault-model constructors, re-exported for WithFaults.
var (
	// Bernoulli drops each delivery independently with probability p.
	Bernoulli = sim.Bernoulli
	// Gilbert is a two-state burst-loss channel.
	Gilbert = sim.Gilbert
	// CrashAt silences nodes from given rounds on.
	CrashAt = sim.CrashAt
	// Duplicate delivers extra copies with probability p.
	Duplicate = sim.Duplicate
	// ComposeFaults chains fault models.
	ComposeFaults = sim.Compose
)

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// GenerateInstance generates random connected unit-disk-graph instances
// (n nodes uniform in a region×region square, links within radius),
// resampling deterministically from seed until connected.
func GenerateInstance(seed int64, n int, region, radius float64) (*Instance, error) {
	return udg.ConnectedInstance(seed, n, region, radius, 0)
}

// BuildUDG builds the unit disk graph over the given points.
func BuildUDG(pts []Point, radius float64) *Graph { return udg.Build(pts, radius) }

// NewGraph returns an empty graph over the given node positions.
func NewGraph(pts []Point) *Graph { return graph.New(pts) }

// Build runs the paper's full distributed pipeline — clustering, connector
// election, induced backbone graphs, and localized Delaunay planarization —
// on the unit disk graph g, returning every intermediate structure and the
// per-node message accounting. The variadic options bound rounds
// (WithMaxRounds), inject faults and loss tolerance (WithFaults,
// WithReliability), and attach observability (WithTracer); with no options
// the call behaves exactly as it always has.
func Build(g *Graph, radius float64, opts ...Option) (*Result, error) {
	return core.Build(g, radius, opts...)
}

// BuildMany builds every instance in order and returns the per-instance
// results. WithWorkers(w) runs up to w builds concurrently; the output —
// including the event stream of an attached WithTracer, whose events are
// tagged with the instance index in Event.Trial and merged in index order
// — is bit-identical for any worker count. When builds fail, the error of
// the lowest failing index is returned, matching a sequential run.
func BuildMany(insts []*Instance, opts ...Option) ([]*Result, error) {
	cfg := core.NewBuildConfig(opts...)
	results := make([]*Result, len(insts))
	rings := make([]*TraceRing, len(insts))
	errs := make([]error, len(insts))
	// A canceled context stops the dispatch of further builds. Instances
	// never started report the context's error — except in partial mode,
	// where Build itself returns immediately with a canceled HealthReport,
	// preserving the partial-results contract for every instance.
	canceled := func() bool { return cfg.Ctx != nil && cfg.Ctx.Err() != nil }
	build := func(i int) {
		if canceled() && !cfg.Partial {
			errs[i] = fmt.Errorf("not started: %w", cfg.Ctx.Err())
			return
		}
		instOpts := opts
		if cfg.Tracer != nil {
			// Each build traces into a private ring so concurrent workers
			// never interleave; the rings are replayed into the caller's
			// tracer in index order below.
			rings[i] = obs.NewRing(1 << 20)
			instOpts = append(instOpts[:len(instOpts):len(instOpts)], core.WithTracer(rings[i]))
		}
		results[i], errs[i] = core.Build(insts[i].UDG, insts[i].Radius, instOpts...)
	}
	workers := cfg.Workers
	if workers > len(insts) {
		workers = len(insts)
	}
	if workers <= 1 {
		for i := range insts {
			build(i)
		}
	} else {
		jobs := make(chan int)
		done := make(chan struct{})
		for w := 0; w < workers; w++ {
			go func() {
				for i := range jobs {
					build(i)
				}
				done <- struct{}{}
			}()
		}
		for i := range insts {
			jobs <- i
		}
		close(jobs)
		for w := 0; w < workers; w++ {
			<-done
		}
	}
	if cfg.Tracer != nil {
		for i, ring := range rings {
			if ring == nil {
				continue
			}
			for _, e := range ring.Events() {
				e.Trial = i
				cfg.Tracer.Emit(e)
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("build instance %d: %w", i, err)
		}
	}
	return results, nil
}

// BuildCentralized computes the same structures as Build via the
// centralized reference implementations (no message accounting); it is
// faster for large sweeps.
func BuildCentralized(g *Graph, radius float64) (*Result, error) {
	return core.BuildCentralized(g, radius)
}

// PlanarLDel builds the flat planarized localized Delaunay graph PLDel
// over all nodes of the unit disk graph g — the LDel baseline row of the
// paper's Table I.
func PlanarLDel(g *Graph, radius float64) (*Graph, error) {
	res, err := ldel.Centralized(g, nil, radius)
	if err != nil {
		return nil, err
	}
	return res.PLDel, nil
}

// RNG returns the relative neighborhood graph of g.
func RNG(g *Graph) *Graph { return proximity.RNG(g) }

// Gabriel returns the Gabriel graph of g.
func Gabriel(g *Graph) *Graph { return proximity.Gabriel(g) }

// Yao returns the Yao graph of g with k cones.
func Yao(g *Graph, k int) (*Graph, error) { return proximity.Yao(g, k) }

// UDel returns the unit Delaunay triangulation (Del ∩ UDG).
func UDel(g *Graph) (*Graph, error) { return proximity.UDel(g) }

// Stretch measures length and hop stretch of structure sub against base.
func Stretch(base, sub *Graph, opt StretchOptions) StretchStats {
	return metrics.Stretch(base, sub, opt)
}

// RouteGreedy forwards greedily toward the destination; it fails at local
// minima.
func RouteGreedy(g *Graph, src, dst int) ([]int, error) {
	return routing.RouteGreedy(g, src, dst, 0)
}

// RouteGFG routes with greedy forwarding plus FACE-1 perimeter recovery;
// delivery is guaranteed on connected planar graphs such as LDel(ICDS).
func RouteGFG(g *Graph, src, dst int) ([]int, error) {
	return routing.RouteGFG(g, src, dst, 0)
}

// RouteViaBackbone performs dominating-set-based routing on a built
// backbone: direct if adjacent, otherwise up to a dominator, across the
// planar backbone with GFG, and down to the destination.
func RouteViaBackbone(res *Result, src, dst int) ([]int, error) {
	return routing.RouteDS(res.UDG, res.LDelICDS, res.Cluster.DominatorsOf,
		res.Conn.InBackbone, src, dst, 0)
}

// Maintained is a network whose clustering roles are repaired
// incrementally under node failures and recoveries (the paper's dynamic
// maintenance future-work item). See internal/maintain for the repair
// rules and invariants.
type Maintained = maintain.State

// NewMaintained builds a maintained network over the given node positions.
func NewMaintained(pts []Point, radius float64) *Maintained {
	return maintain.New(pts, radius)
}

// Distribution selects a node-placement model for instance generation.
type Distribution = udg.Distribution

// Placement models for GenerateInstanceDist.
const (
	// DistUniform places nodes uniformly (the paper's model).
	DistUniform = udg.Uniform
	// DistClustered places nodes in Gaussian blobs.
	DistClustered = udg.Clustered
	// DistCorridor confines nodes to a thin band.
	DistCorridor = udg.Corridor
	// DistRing places nodes in an annulus (a built-in routing void).
	DistRing = udg.Ring
)

// GenerateInstanceDist is GenerateInstance with a placement model.
func GenerateInstanceDist(seed int64, dist Distribution, n int, region, radius float64) (*Instance, error) {
	return udg.ConnectedInstanceDist(seed, dist, n, region, radius, 0)
}

// DiscoverRoute performs on-demand dominating-set route discovery (the
// hierarchical routing scheme the backbone serves): the route request
// floods over backbone nodes only, and the destination replies along
// reverse pointers. It returns the route and the total message cost.
func DiscoverRoute(res *Result, src, dst int) ([]int, int, error) {
	disc, err := routing.DiscoverRoute(res.UDG, res.Conn.InBackbone, src, dst, 0)
	if err != nil {
		return nil, 0, err
	}
	return disc.Route, disc.Transmissions, nil
}
