// Package core assembles the paper's full pipeline — the primary
// contribution of the reproduced work: clustering (MIS election) →
// connector election (Algorithm 1) → induced backbone graphs (CDS, CDS',
// ICDS, ICDS') → localized Delaunay planarization over the backbone
// (Algorithms 2–3), producing LDel(ICDS) and LDel(ICDS').
//
// Build runs every phase as a distributed protocol on the message-passing
// simulator and accounts for each node's communication cost exactly as the
// paper's simulations do (IamDominator, IamDominatee, TryConnector,
// IamConnector, Location, proposal, accept, reject, plus the initial ID
// beacon and the one-message role announcement that induces ICDS).
// BuildCentralized produces the identical structures through the
// centralized reference implementations, with no message accounting — it
// exists for fast large-scale sweeps and for cross-validation in tests.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"geospanner/internal/cluster"
	"geospanner/internal/connector"
	"geospanner/internal/graph"
	"geospanner/internal/health"
	"geospanner/internal/ldel"
	"geospanner/internal/obs"
	"geospanner/internal/sim"
)

// ErrInvalidRadius is returned when the transmission radius is not
// positive.
var ErrInvalidRadius = errors.New("core: transmission radius must be positive")

// Message type names for the bookkeeping messages that are not part of a
// simulated protocol: the initial ID/position beacon every node sends once,
// and the role announcement that lets neighbors derive the induced graphs
// ICDS and ICDS'.
const (
	MsgTypeBeacon       = "Beacon"
	MsgTypeRoleAnnounce = "RoleAnnounce"
)

// MessageStats aggregates per-node message counts.
type MessageStats struct {
	// PerNode[v] is the number of messages node v broadcast.
	PerNode []int
	// ByType counts messages by type name.
	ByType map[string]int
	// Retransmissions and GaveUp surface the Reliable shim's counters for
	// the networks folded into these stats: slot retransmissions after the
	// first send, and slots abandoned after exhausting MaxRetries. Both
	// are zero for runs without WithReliability.
	Retransmissions int
	GaveUp          int
}

// newMessageStats returns empty stats for n nodes.
func newMessageStats(n int) MessageStats {
	return MessageStats{PerNode: make([]int, n), ByType: make(map[string]int)}
}

// Clone returns a deep copy.
func (m MessageStats) Clone() MessageStats {
	c := newMessageStats(len(m.PerNode))
	copy(c.PerNode, m.PerNode)
	for k, v := range m.ByType {
		c.ByType[k] = v
	}
	c.Retransmissions = m.Retransmissions
	c.GaveUp = m.GaveUp
	return c
}

// AddNetwork accumulates the counters of a finished simulator network,
// including the Reliable shim's retransmission and give-up totals when the
// network ran under WithReliability.
func (m *MessageStats) AddNetwork(net *sim.Network) {
	for id, s := range net.SentAll() {
		m.PerNode[id] += s
	}
	for k, v := range net.SentByType() {
		m.ByType[k] += v
	}
	rs := sim.ReliableStatsOf(net)
	m.Retransmissions += rs.Retransmissions
	m.GaveUp += rs.GaveUp
}

// addNetworkMapped is AddNetwork with an ID translation: local node i of
// the (component-extracted) network is accounted as global node ids[i].
func (m *MessageStats) addNetworkMapped(net *sim.Network, ids []int) {
	for id, s := range net.SentAll() {
		m.PerNode[ids[id]] += s
	}
	for k, v := range net.SentByType() {
		m.ByType[k] += v
	}
	rs := sim.ReliableStatsOf(net)
	m.Retransmissions += rs.Retransmissions
	m.GaveUp += rs.GaveUp
}

// addUniformNodes adds count messages of the given type to each listed
// node (the degraded-mode analogue of AddUniform, which assumes every node
// participates).
func (m *MessageStats) addUniformNodes(nodes []int, count int, msgType string) {
	for _, v := range nodes {
		m.PerNode[v] += count
	}
	m.ByType[msgType] += count * len(nodes)
}

// AddUniform adds count messages of the given type to every node.
func (m *MessageStats) AddUniform(count int, msgType string) {
	for i := range m.PerNode {
		m.PerNode[i] += count
	}
	m.ByType[msgType] += count * len(m.PerNode)
}

// Max returns the maximum per-node message count.
func (m MessageStats) Max() int {
	var maxCount int
	for _, s := range m.PerNode {
		if s > maxCount {
			maxCount = s
		}
	}
	return maxCount
}

// Avg returns the average per-node message count.
func (m MessageStats) Avg() float64 {
	if len(m.PerNode) == 0 {
		return 0
	}
	return float64(m.Total()) / float64(len(m.PerNode))
}

// Total returns the total message count.
func (m MessageStats) Total() int {
	var total int
	for _, s := range m.PerNode {
		total += s
	}
	return total
}

// Result holds every structure the pipeline produces.
type Result struct {
	// UDG is the input unit disk graph.
	UDG *graph.Graph
	// Radius is the transmission radius.
	Radius float64
	// Cluster is the dominator election outcome.
	Cluster *cluster.Result
	// Conn carries the backbone node set and the CDS, CDS', ICDS, ICDS'
	// graphs.
	Conn *connector.Result
	// LDelICDS is the planarized localized Delaunay graph over the
	// backbone — the paper's headline topology.
	LDelICDS *graph.Graph
	// LDelICDSPrime is LDelICDS plus every dominatee→dominator edge.
	LDelICDSPrime *graph.Graph
	// Triangles lists the backbone triangles surviving planarization.
	Triangles []ldel.TriKey
	// MsgsCDS counts messages to build CDS/CDS': beacon + clustering +
	// connector election.
	MsgsCDS MessageStats
	// MsgsICDS additionally counts the one-per-node role announcement
	// that induces ICDS/ICDS'.
	MsgsICDS MessageStats
	// MsgsLDel additionally counts the LDel construction messages; it is
	// the total cost of LDel(ICDS) / LDel(ICDS').
	MsgsLDel MessageStats
	// Rounds records the simulator rounds each distributed stage ran, for
	// measuring round inflation under lossy channels.
	Rounds StageRounds
	// Reliable aggregates the ack/retransmission shim's counters over all
	// stages when Build ran under sim.WithReliability; zero otherwise.
	Reliable sim.ReliableStats
	// Health is the structured self-diagnosis of a partition-aware build
	// (WithPartialResults / WithDeadline): live components, dead and
	// uncovered nodes, stuck stages, the give-up ledger, and per-component
	// completion. Nil for classic all-or-nothing builds.
	Health *health.Report
}

// StageRounds is the per-stage round count of a distributed Build.
type StageRounds struct {
	Cluster, Connector, LDel int
}

// Total returns the summed rounds of all stages.
func (s StageRounds) Total() int { return s.Cluster + s.Connector + s.LDel }

// Distributed reports whether the result carries message accounting.
func (r *Result) Distributed() bool { return len(r.MsgsLDel.PerNode) > 0 }

// BuildConfig is the resolved option set of a Build call. Drivers that
// fan Build out over many instances (geospanner.BuildMany, the experiment
// engine) resolve the caller's options once via NewBuildConfig to read
// Workers and Tracer.
type BuildConfig struct {
	// MaxRounds bounds each stage's simulator rounds (0 = the simulator
	// default of 10·n + 50).
	MaxRounds int
	// Workers is consumed by batch drivers that build many instances
	// concurrently; a single Build is inherently sequential (its three
	// stages feed each other) and ignores it.
	Workers int
	// Tracer observes every stage of the run. Nil disables tracing at
	// zero cost.
	Tracer obs.Tracer
	// Faults is the fault model of every stage's channel (WithFaults). It
	// is held here, not pre-baked into simulator options, so the
	// partial-results build can introspect its crash schedule and remap it
	// onto per-component subnetworks.
	Faults sim.FaultModel
	// Reliability, when non-nil, wraps every stage's protocols in the
	// Reliable shim (WithReliability).
	Reliability *sim.ReliableConfig
	// Partial selects the partition-aware build mode: detect partitions,
	// run the pipeline per live component, and return a partial Result
	// plus a health.Report instead of an error (WithPartialResults).
	Partial bool
	// Ctx cancels the build between simulator rounds (WithContext).
	Ctx context.Context
	// Deadline bounds the build's wall-clock time (WithDeadline); it
	// implies Partial, so a build that runs out of budget returns what it
	// has instead of an error.
	Deadline time.Duration
	// Shards is the shard count of every stage's simulator (WithShards);
	// 0 means one shard.
	Shards int
	// Parallel bounds the simulator's worker pool (WithParallelism); 0
	// lets the kernel pick GOMAXPROCS. It has no effect unless
	// Shards > 1.
	Parallel int
}

// BuildOption configures Build.
type BuildOption func(*BuildConfig)

// NewBuildConfig resolves options into a config.
func NewBuildConfig(opts ...BuildOption) BuildConfig {
	var cfg BuildConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return cfg
}

// WithMaxRounds bounds each stage's simulator rounds, making a wedged run
// fail with a *sim.QuiescenceError instead of spinning to the (large)
// default budget. It replaces the deprecated positional maxRounds
// argument Build took before the options redesign.
func WithMaxRounds(r int) BuildOption {
	return func(c *BuildConfig) { c.MaxRounds = r }
}

// WithWorkers sets the concurrency of batch drivers (geospanner.BuildMany
// and the experiment engine); results are bit-identical for any value.
func WithWorkers(w int) BuildOption {
	return func(c *BuildConfig) { c.Workers = w }
}

// WithTracer attaches an observability sink to every stage of the build.
func WithTracer(t obs.Tracer) BuildOption {
	return func(c *BuildConfig) { c.Tracer = t }
}

// WithFaults runs every stage on a faulty channel (sim.WithFaults). The
// model is recorded on the config — not folded into opaque simulator
// options — so the partial-results mode can read its crash schedule.
func WithFaults(fm sim.FaultModel) BuildOption {
	return func(c *BuildConfig) { c.Faults = fm }
}

// WithReliability wraps every stage's protocols in the Reliable
// ack/retransmission shim (sim.WithReliability).
func WithReliability(cfg sim.ReliableConfig) BuildOption {
	return func(c *BuildConfig) { c.Reliability = &cfg }
}

// WithShards runs every stage's simulator on p shards (sim.WithShards):
// the per-round delivery and Tick work is partitioned across p concurrent
// shards with deterministic merges, so every output — graphs, message
// counters, round counts, protocol trace events — is bit-identical to the
// default one-shard build for any p. p <= 0 (the default) means one
// shard.
func WithShards(p int) BuildOption {
	return func(c *BuildConfig) { c.Shards = p }
}

// WithParallelism bounds the worker pool the simulator uses to execute
// shards concurrently (sim.WithParallelism). k <= 0 — the default —
// sizes the pool to GOMAXPROCS; k is always clamped to the shard count.
// Like WithShards it is pure mechanism: every output is bit-identical for
// any k, only wall-clock time changes. It has no effect on a one-shard
// build.
func WithParallelism(k int) BuildOption {
	return func(c *BuildConfig) { c.Parallel = k }
}

// WithPartialResults switches Build to graceful degradation: instead of
// failing all-or-nothing when the network is damaged, Build computes the
// connected components of the live unit disk graph (nodes the fault
// model's crash schedule kills are dead), runs the full
// cluster/connector/LDel pipeline independently on every component, and
// returns a merged partial Result — every structure the survivors could
// compute — plus a health.Report naming every dead node, uncovered node,
// stuck stage, and given-up slot. The output is a deterministic function
// of the instance and fault schedule.
func WithPartialResults() BuildOption {
	return func(c *BuildConfig) { c.Partial = true }
}

// WithContext attaches a cancellation context: every stage's simulator
// checks it between rounds, so a canceled or expired context stops the
// build promptly. In a classic build the cancellation surfaces as an error
// wrapping sim.ErrCanceled and the context cause; combined with
// WithPartialResults (or WithDeadline) the build instead returns whatever
// components it finished, with the health report marking the rest.
func WithContext(ctx context.Context) BuildOption {
	return func(c *BuildConfig) { c.Ctx = ctx }
}

// WithDeadline bounds the build's wall-clock time. It implies
// WithPartialResults: a build that exhausts its budget returns within
// roughly one simulator round of the deadline with a partial Result and a
// health report marking the unfinished components, rather than an error.
func WithDeadline(d time.Duration) BuildOption {
	return func(c *BuildConfig) {
		c.Deadline = d
		c.Partial = true
	}
}

// resolveContext derives the build's cancellation context from the Ctx
// and Deadline options. The returned cancel func is non-nil exactly when a
// deadline timer was armed.
func (c *BuildConfig) resolveContext() (context.Context, context.CancelFunc) {
	ctx := c.Ctx
	if c.Deadline <= 0 {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithTimeout(ctx, c.Deadline)
}

// simOptions assembles the per-stage simulator option list.
func (c *BuildConfig) simOptions() []sim.Option {
	var opts []sim.Option
	if c.Faults != nil {
		opts = append(opts, sim.WithFaults(c.Faults))
	}
	if c.Reliability != nil {
		opts = append(opts, sim.WithReliability(*c.Reliability))
	}
	if c.Tracer != nil {
		opts = append(opts, sim.WithTracer(c.Tracer))
	}
	if c.Shards > 0 {
		opts = append(opts, sim.WithShards(c.Shards))
		if c.Parallel != 0 {
			opts = append(opts, sim.WithParallelism(c.Parallel))
		}
	}
	return opts
}

// Build runs the full distributed pipeline on the unit disk graph g with
// the given transmission radius. Options bound the round budget
// (WithMaxRounds), inject faults and loss tolerance (WithFaults,
// WithReliability), or attach observability (WithTracer):
// Build(g, r, WithReliability(...), WithFaults(...)) runs the whole
// construction loss-tolerantly on a faulty channel and — under any fault
// model that delivers each message eventually — produces output graphs
// bit-identical to the lossless run.
func Build(g *graph.Graph, radius float64, opts ...BuildOption) (*Result, error) {
	if radius <= 0 {
		return nil, ErrInvalidRadius
	}
	cfg := NewBuildConfig(opts...)
	ctx, cancel := cfg.resolveContext()
	if cancel != nil {
		defer cancel()
	}
	if cfg.Partial {
		return buildPartial(g, radius, cfg, ctx)
	}
	maxRounds, simOpts := cfg.MaxRounds, cfg.simOptions()
	if ctx != nil {
		simOpts = append(simOpts, sim.WithContext(ctx))
	}
	cl, clNet, err := cluster.Run(g, maxRounds, simOpts...)
	if err != nil {
		return nil, fmt.Errorf("build backbone: %w", err)
	}
	conn, connNet, err := connector.Run(g, cl, maxRounds, simOpts...)
	if err != nil {
		return nil, fmt.Errorf("build backbone: %w", err)
	}
	ld, ldNet, err := ldel.Run(conn.ICDS, conn.InBackbone, radius, maxRounds, simOpts...)
	if err != nil {
		return nil, fmt.Errorf("planarize backbone: %w", err)
	}

	res := finish(g, radius, cl, conn, ld)
	res.Rounds = StageRounds{Cluster: clNet.Rounds(), Connector: connNet.Rounds(), LDel: ldNet.Rounds()}
	for _, net := range []*sim.Network{clNet, connNet, ldNet} {
		res.Reliable.Add(sim.ReliableStatsOf(net))
	}

	res.MsgsCDS = newMessageStats(g.N())
	res.MsgsCDS.AddUniform(1, MsgTypeBeacon)
	res.MsgsCDS.AddNetwork(clNet)
	res.MsgsCDS.AddNetwork(connNet)

	res.MsgsICDS = res.MsgsCDS.Clone()
	res.MsgsICDS.AddUniform(1, MsgTypeRoleAnnounce)

	res.MsgsLDel = res.MsgsICDS.Clone()
	res.MsgsLDel.AddNetwork(ldNet)
	return res, nil
}

// BuildCentralized computes the same structures as Build through the
// centralized reference implementations. The returned Result carries no
// message statistics.
func BuildCentralized(g *graph.Graph, radius float64) (*Result, error) {
	if radius <= 0 {
		return nil, ErrInvalidRadius
	}
	cl := cluster.Centralized(g)
	conn := connector.Centralized(g, cl)
	ld, err := ldel.Centralized(conn.ICDS, conn.InBackbone, radius)
	if err != nil {
		return nil, fmt.Errorf("planarize backbone: %w", err)
	}
	return finish(g, radius, cl, conn, ld), nil
}

func finish(g *graph.Graph, radius float64, cl *cluster.Result, conn *connector.Result, ld *ldel.Result) *Result {
	prime := ld.PLDel.Clone()
	for v := 0; v < g.N(); v++ {
		for _, u := range cl.DominatorsOf[v] {
			prime.AddEdge(v, u)
		}
	}
	return &Result{
		UDG:           g,
		Radius:        radius,
		Cluster:       cl,
		Conn:          conn,
		LDelICDS:      ld.PLDel,
		LDelICDSPrime: prime,
		Triangles:     ld.Triangles,
	}
}
