package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/obs"
)

// gridGraph builds a k×k grid UDG (radius just over 1), a connected,
// moderately dense topology with nodes of unequal degree — corner nodes
// have 2 neighbors, interior nodes 4 — so shard boundaries cut real edges.
func gridGraph(k int) *graph.Graph {
	pts := make([]geom.Point, 0, k*k)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	g := graph.New(pts)
	id := func(x, y int) int { return y*k + x }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			if x+1 < k {
				g.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < k {
				g.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	return g
}

// echoProto floods, emits a state transition on first hearing, and echoes
// a bounded number of replies — enough protocol activity (multi-round
// traffic, state events, per-type counters) to make equivalence tests
// meaningful.
type echoMsg struct{ hops int }

func (echoMsg) Type() string { return "echo" }

type echoProto struct {
	id      int
	started bool
	heard   bool
	replies int
	history []int // (from, hops) pairs, flattened, in delivery order
}

func (p *echoProto) Init(ctx *Context) {
	if p.started {
		p.heard = true
		ctx.EmitState("origin")
		ctx.Broadcast(echoMsg{hops: 0})
	}
}

func (p *echoProto) Handle(ctx *Context, from int, m Message) {
	e := m.(echoMsg)
	p.history = append(p.history, from, e.hops)
	if !p.heard {
		p.heard = true
		ctx.EmitState("reached")
		ctx.Broadcast(echoMsg{hops: e.hops + 1})
	}
}

func (p *echoProto) Tick(ctx *Context, round int) {
	if p.heard && p.replies < 2 && round%2 == 0 {
		p.replies++
		ctx.Broadcast(echoMsg{hops: -p.replies})
	}
}

func (p *echoProto) Done() bool { return !p.started || p.replies >= 2 }

// echoRun is everything observable about one run of the echo protocol:
// counters, round trace, per-node delivery histories, and the full
// protocol-level event stream (wall times zeroed, executor shard events
// stripped).
type echoRun struct {
	rounds    int
	err       string
	sent      []int
	byType    map[string]int
	trace     []RoundStats
	histories [][]int
	events    []obs.Event
	shards    int
}

// runEcho executes the echo protocol on a k×k grid with Run.
func runEcho(t *testing.T, k int, opts ...Option) echoRun {
	t.Helper()
	return execEcho(t, k, func(net *Network) (int, error) { return net.Run(200) }, opts...)
}

// refEcho executes the echo protocol on a k×k grid with the sequential
// reference loop.
func refEcho(t *testing.T, k int, opts ...Option) echoRun {
	t.Helper()
	return execEcho(t, k, func(net *Network) (int, error) { return runReference(net, 200) }, opts...)
}

func execEcho(t *testing.T, k int, run func(*Network) (int, error), opts ...Option) echoRun {
	t.Helper()
	ring := obs.NewRing(1 << 20)
	g := gridGraph(k)
	opts = append(opts, WithTracer(ring), WithStage("echo"))
	net := NewNetwork(g, func(id int) Protocol {
		return &echoProto{id: id, started: id%7 == 0}
	}, opts...)
	rounds, err := run(net)
	out := echoRun{
		rounds: rounds,
		sent:   net.SentAll(),
		byType: net.SentByType(),
		trace:  net.Trace(),
		shards: net.ShardsUsed(),
	}
	if err != nil {
		out.err = err.Error()
	}
	for id := 0; id < g.N(); id++ {
		out.histories = append(out.histories, net.Protocol(id).(*echoProto).history)
	}
	for _, e := range ring.Events() {
		if obs.ExecutorKind(e.Kind) {
			continue
		}
		e.WallNS = 0
		out.events = append(out.events, e)
	}
	return out
}

func diffRuns(t *testing.T, label string, want, got echoRun) {
	t.Helper()
	if want.rounds != got.rounds || want.err != got.err {
		t.Fatalf("%s: rounds/err = (%d, %q), want (%d, %q)", label, got.rounds, got.err, want.rounds, want.err)
	}
	if !reflect.DeepEqual(want.sent, got.sent) {
		t.Fatalf("%s: per-node sent counters diverge", label)
	}
	if !reflect.DeepEqual(want.byType, got.byType) {
		t.Fatalf("%s: per-type counters = %v, want %v", label, got.byType, want.byType)
	}
	if !reflect.DeepEqual(want.trace, got.trace) {
		t.Fatalf("%s: round trace diverges", label)
	}
	if !reflect.DeepEqual(want.histories, got.histories) {
		t.Fatalf("%s: delivery histories diverge", label)
	}
	if len(want.events) != len(got.events) {
		t.Fatalf("%s: %d events, want %d", label, len(got.events), len(want.events))
	}
	for i := range want.events {
		if want.events[i] != got.events[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got.events[i], want.events[i])
		}
	}
}

// TestShardEquivalence pins the kernel's contract against the sequential
// reference loop (runReference): same counters, same round trace, same
// per-receiver delivery order, same protocol event stream, same wedge
// diagnostics — for the default run and for every shard count and phase
// parallelism, with and without faults and the Reliable shim.
func TestShardEquivalence(t *testing.T) {
	// Options are factories: Gilbert (and any stateful model) must be
	// constructed fresh per run, or earlier runs' chain state leaks into
	// later ones.
	cases := []struct {
		name string
		opts func() []Option
	}{
		{"plain", func() []Option { return nil }},
		{"bernoulli", func() []Option { return []Option{WithFaults(Bernoulli(42, 0.2))} }},
		{"gilbert", func() []Option { return []Option{WithFaults(Gilbert(7, 0.3, 0.5, 0.9))} }},
		{"compose", func() []Option { return []Option{WithFaults(Compose(Bernoulli(1, 0.1), Duplicate(2, 0.2)))} }},
		{"crash", func() []Option { return []Option{WithFaults(CrashAt(map[int]int{3: 4, 11: 2}))} }},
		{"reliable+bernoulli", func() []Option {
			return []Option{WithReliability(ReliableConfig{}), WithFaults(Bernoulli(9, 0.25))}
		}},
		{"reliable+gilbert", func() []Option {
			return []Option{WithReliability(ReliableConfig{}), WithFaults(Gilbert(5, 0.2, 0.6, 0.8))}
		}},
		// A crashed neighbor never acknowledges, so the shim wedges: the
		// round budget runs out and the QuiescenceError's stuck set and
		// in-flight tally must match the reference's.
		{"reliable+crash", func() []Option {
			return []Option{WithReliability(ReliableConfig{}), WithFaults(CrashAt(map[int]int{8: 3}))}
		}},
	}
	// Explicit worker counts, not just NumCPU: on a single-core runner the
	// default would collapse to 1 and never exercise the pool.
	pars := []int{1, 2, runtime.NumCPU()}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := refEcho(t, 6, tc.opts()...)
			def := runEcho(t, 6, tc.opts()...)
			if def.shards != 1 {
				t.Fatalf("default run reported %d shards, want 1", def.shards)
			}
			diffRuns(t, "default", seq, def)
			for _, p := range []int{1, 2, 4, 8} {
				for _, k := range pars {
					opts := append(tc.opts(), WithShards(p), WithParallelism(k))
					got := runEcho(t, 6, opts...)
					if got.shards != p {
						t.Fatalf("p=%d/par=%d: ShardsUsed = %d", p, k, got.shards)
					}
					diffRuns(t, fmt.Sprintf("p=%d/par=%d", p, k), seq, got)
				}
			}
		})
	}
}

// TestShardClampsToNodeCount: more shards than nodes degrades to one node
// per shard, still bit-identical.
func TestShardClampsToNodeCount(t *testing.T) {
	seq := refEcho(t, 2)
	got := runEcho(t, 2, WithShards(64))
	if got.shards != 4 {
		t.Fatalf("ShardsUsed = %d, want clamp to 4 nodes", got.shards)
	}
	diffRuns(t, "clamped", seq, got)
}

// TestShardFallbackUnshardableFaults: a fault model without ShardFaults
// cannot be split into per-shard instances, so the run uses one shard —
// and the model still decides every delivery.
func TestShardFallbackUnshardableFaults(t *testing.T) {
	g := pathGraph(3)
	net := NewNetwork(g, func(id int) Protocol {
		return &flooder{id: id, started: id == 0}
	}, WithShards(4), WithFaults(linkCut{from: 1, to: 2}))
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if net.ShardsUsed() != 1 {
		t.Fatalf("ShardsUsed = %d, want one shard", net.ShardsUsed())
	}
	if net.Protocol(2).(*flooder).heard {
		t.Fatal("node 2 heard the flood through a dropped link")
	}
}

// TestShardMetricsEmitted: a traced multi-shard run reports one KindShard
// event per shard with the node partition and a warm mailbox pool; a
// one-shard run — the default — emits no executor events at all.
func TestShardMetricsEmitted(t *testing.T) {
	g := gridGraph(6)
	traced := func(p int) []obs.Event {
		ring := obs.NewRing(1 << 20)
		net := NewNetwork(g, func(id int) Protocol {
			return &echoProto{id: id, started: id%7 == 0}
		}, WithShards(p), WithTracer(ring), WithStage("echo"))
		if _, err := net.Run(200); err != nil {
			t.Fatal(err)
		}
		return ring.Events()
	}
	for _, e := range traced(1) {
		if obs.ExecutorKind(e.Kind) {
			t.Fatalf("one-shard run emitted executor event %+v", e)
		}
	}
	var shardEvents []obs.Event
	for _, e := range traced(4) {
		if e.Kind == obs.KindShard {
			shardEvents = append(shardEvents, e)
		}
	}
	if len(shardEvents) != 4 {
		t.Fatalf("got %d shard events, want 4", len(shardEvents))
	}
	nodes, hits := 0, 0
	for i, e := range shardEvents {
		if e.From != i {
			t.Fatalf("shard event %d has From=%d", i, e.From)
		}
		nodes += e.N
		hits += e.Sent
	}
	if nodes != g.N() {
		t.Fatalf("shard events cover %d nodes, want %d", nodes, g.N())
	}
	// The echo run lasts many rounds; after the first round every mailbox
	// should come from the free list.
	if hits == 0 {
		t.Fatal("mailbox pool recorded no hits over a multi-round run")
	}
}

// TestShardQuiescenceError: a multi-shard run surfaces the diagnostic
// QuiescenceError when the round budget runs out.
func TestShardQuiescenceError(t *testing.T) {
	g := pathGraph(4)
	net := NewNetwork(g, func(id int) Protocol { return chatter{} }, WithShards(2))
	_, err := net.Run(10)
	if !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("err = %v, want ErrNotQuiescent", err)
	}
	if net.Rounds() != 10 {
		t.Fatalf("Rounds = %d, want 10", net.Rounds())
	}
}

// TestShardFaultModels pins shardFaultModels' support matrix.
func TestShardFaultModels(t *testing.T) {
	shardable := []FaultModel{
		nil,
		Bernoulli(1, 0.5),
		Gilbert(1, 0.1, 0.5, 0.9),
		CrashAt(map[int]int{0: 1}),
		Duplicate(1, 0.1),
		Compose(Bernoulli(1, 0.1), Duplicate(2, 0.1)),
		RemapFaults(Bernoulli(1, 0.1), []int{2, 0, 1}),
	}
	for i, fm := range shardable {
		fms, ok := shardFaultModels(fm, 3)
		if !ok || len(fms) != 3 {
			t.Fatalf("model %d: shardFaultModels = (%d, %v), want (3, true)", i, len(fms), ok)
		}
	}
	unshardable := []FaultModel{
		linkCut{from: 1, to: 2},
		Compose(Bernoulli(1, 0.1), linkCut{from: 1, to: 2}),
		RemapFaults(linkCut{from: 1, to: 2}, []int{0}),
	}
	for i, fm := range unshardable {
		if _, ok := shardFaultModels(fm, 3); ok {
			t.Fatalf("model %d: expected unshardable", i)
		}
	}
}

// TestRunEmptyAndSingleNode pins the degenerate networks: with no nodes,
// or one node with no neighbors to hear it, a run takes exactly one round
// on one shard and matches the reference, whatever WithShards asks for.
func TestRunEmptyAndSingleNode(t *testing.T) {
	for _, n := range []int{0, 1} {
		for _, p := range []int{0, 1, 4} {
			mk := func() *Network {
				return NewNetwork(pathGraph(n), func(id int) Protocol {
					return &flooder{id: id, started: true}
				}, WithShards(p))
			}
			ref := mk()
			wantRounds, wantErr := runReference(ref, 0)
			net := mk()
			rounds, err := net.Run(0)
			if rounds != 1 || err != nil || wantRounds != 1 || wantErr != nil {
				t.Fatalf("n=%d shards=%d: Run = (%d, %v), reference (%d, %v); want (1, nil)",
					n, p, rounds, err, wantRounds, wantErr)
			}
			if net.ShardsUsed() != 1 {
				t.Fatalf("n=%d shards=%d: ShardsUsed = %d, want 1", n, p, net.ShardsUsed())
			}
			if !reflect.DeepEqual(net.Trace(), ref.Trace()) || !reflect.DeepEqual(net.SentAll(), ref.SentAll()) {
				t.Fatalf("n=%d shards=%d: trace/counters %v/%v, reference %v/%v",
					n, p, net.Trace(), net.SentAll(), ref.Trace(), ref.SentAll())
			}
		}
	}
}
