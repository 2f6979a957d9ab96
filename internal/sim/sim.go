// Package sim is a deterministic, synchronous, round-based message-passing
// simulator for localized wireless protocols. It is the substrate on which
// the paper's distributed algorithms (clustering, connector election, and
// localized Delaunay construction) execute, and it is where the paper's
// communication costs are measured: each Broadcast is one radio
// transmission heard by every 1-hop neighbor in the unit disk graph, and
// the per-node send counters are exactly the "number of messages sent by
// each node" reported in the paper's figures.
//
// Execution model (bulk-synchronous):
//
//  1. Init is called on every protocol instance in node-ID order.
//  2. In each round, messages broadcast in the previous round are delivered
//     to all neighbors of the sender — receivers in ID order, messages at a
//     receiver in (sender ID, send sequence) order — then Tick is called on
//     every node in ID order.
//  3. The run ends when no messages are in flight and every protocol
//     reports Done.
//
// Determinism: given the same graph and protocols, every run produces the
// same message trace, so experiments are reproducible bit-for-bit.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/obs"
)

// ErrNotQuiescent is returned by Run when the round budget is exhausted
// before the network goes quiescent. The concrete error is always a
// *QuiescenceError carrying the stuck nodes and the in-flight traffic.
var ErrNotQuiescent = errors.New("sim: round budget exhausted before quiescence")

// QuiescenceError is the diagnostic form of ErrNotQuiescent: which nodes
// had not finished their protocol when the round budget ran out, what was
// still in flight, and — for protocols that can explain themselves (see
// StuckReporter) — why each stuck node was stuck.
type QuiescenceError struct {
	// Rounds is the number of rounds executed before giving up.
	Rounds int
	// NotDone lists the nodes whose protocol had not reported Done, in
	// increasing ID order.
	NotDone []int
	// InFlight counts the undelivered messages by type name.
	InFlight map[string]int
	// Reasons maps a stuck node to its self-diagnosis, for protocols
	// implementing StuckReporter.
	Reasons map[int]string
}

// Error implements error. The message names the stuck nodes and the
// in-flight traffic so a failed lossy run is diagnosable from the error
// alone.
func (e *QuiescenceError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v (after %d rounds; %d nodes not done", ErrNotQuiescent, e.Rounds, len(e.NotDone))
	if len(e.NotDone) > 0 {
		show := e.NotDone
		const maxShow = 8
		if len(show) > maxShow {
			show = show[:maxShow]
		}
		fmt.Fprintf(&b, ": %v", show)
		if len(e.NotDone) > maxShow {
			fmt.Fprintf(&b, " …")
		}
	}
	if len(e.InFlight) > 0 {
		types := make([]string, 0, len(e.InFlight))
		for t := range e.InFlight {
			types = append(types, t)
		}
		sort.Strings(types)
		b.WriteString("; in flight:")
		for _, t := range types {
			fmt.Fprintf(&b, " %s=%d", t, e.InFlight[t])
		}
	}
	b.WriteString(")")
	for _, id := range e.NotDone {
		if reason, ok := e.Reasons[id]; ok {
			fmt.Fprintf(&b, "\n  node %d: %s", id, reason)
		}
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrNotQuiescent) hold for *QuiescenceError.
func (e *QuiescenceError) Unwrap() error { return ErrNotQuiescent }

// StuckReporter is an optional Protocol extension: a protocol that can
// explain why it has not finished reports it here, and Run includes the
// explanation in the QuiescenceError. The Reliable shim implements it.
type StuckReporter interface {
	StuckReason() string
}

// ErrCanceled is returned by Run when the network's context (WithContext)
// is canceled before quiescence. The concrete error is always a
// *CanceledError; errors.Is also matches the context's own cause
// (context.Canceled or context.DeadlineExceeded).
var ErrCanceled = errors.New("sim: run canceled before quiescence")

// CanceledError reports a run cut short by its context: how many rounds
// executed before the cancellation was observed, and the context's cause.
// Unlike a QuiescenceError, it says nothing about whether the protocols
// would have converged — the budget that ran out was the caller's, not the
// simulator's.
type CanceledError struct {
	// Rounds is the number of rounds executed before cancellation.
	Rounds int
	// Cause is the context error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("%v (after %d rounds: %v)", ErrCanceled, e.Rounds, e.Cause)
}

// Unwrap makes errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err())
// both hold for *CanceledError.
func (e *CanceledError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }

// Message is a protocol message. Type names group the per-type counters.
type Message interface {
	Type() string
}

// Protocol is a per-node protocol state machine.
type Protocol interface {
	// Init runs once before the first round.
	Init(ctx *Context)
	// Handle is invoked for each delivered message.
	Handle(ctx *Context, from int, m Message)
	// Tick runs once per round after all deliveries of that round. It
	// gives phase-structured protocols a barrier: by round r every
	// message sent in rounds < r has been delivered.
	Tick(ctx *Context, round int)
	// Done reports whether the node has finished its protocol. The run
	// ends when all nodes are Done and no messages are in flight.
	Done() bool
}

// Context is the interface a protocol uses to interact with the network.
// When send is non-nil, Broadcast is redirected to it instead of the
// radio — the hook the Reliable shim uses to capture an inner protocol's
// sends and carry them as payloads inside its own envelopes. During Run
// every node belongs to one shard of the kernel for the whole run (see
// shard.go), and everything observable — broadcasts, trace events — is
// buffered in that shard and merged deterministically at the phase
// barrier.
type Context struct {
	net  *Network
	id   int
	send func(m Message)
	sh   *shardState // the owning shard; nil outside Run
}

// ID returns the node's identifier (its index in the underlying graph).
func (c *Context) ID() int { return c.id }

// Pos returns the node's position.
func (c *Context) Pos() geom.Point { return c.net.g.Point(c.id) }

// Neighbors returns the node's 1-hop neighbors in the unit disk graph, in
// increasing ID order.
func (c *Context) Neighbors() []int { return c.net.g.Neighbors(c.id) }

// Broadcast queues m for delivery to all 1-hop neighbors next round and
// increments the node's send counter. It may only be called while the
// network runs (from Init, Handle, or Tick).
func (c *Context) Broadcast(m Message) {
	if c.send != nil {
		c.send(m)
		return
	}
	c.sh.broadcast(c, m)
}

// EmitState records a protocol state transition (the node reaching the
// named state) in the run's trace. With no tracer installed it is a
// single nil check.
func (c *Context) EmitState(state string) {
	n := c.net
	if n == nil || n.tracer == nil {
		return
	}
	c.emit(obs.Event{Kind: obs.KindState, Stage: n.stage, Round: n.rounds,
		Type: state, From: c.id, To: obs.NoNode})
}

// emit forwards an event to the network's tracer; sim-internal callers
// (the Reliable shim) use it for their own event kinds. During Run the
// event is buffered in the node's shard and replayed into the tracer at
// the next merge, preserving node-ID emit order; a node with no shard
// emits directly.
func (c *Context) emit(e obs.Event) {
	if c.net == nil || c.net.tracer == nil {
		return
	}
	if c.sh != nil {
		c.sh.events = append(c.sh.events, e)
		return
	}
	c.net.tracer.Emit(e)
}

// tracing reports whether event construction is worth the work.
func (c *Context) tracing() bool { return c.net != nil && c.net.tracer != nil }

// stageName returns the network's stage label for building events.
func (c *Context) stageName() string {
	if c.net == nil {
		return ""
	}
	return c.net.stage
}

type envelope struct {
	from int
	seq  int
	msg  Message
}

// Network couples a unit disk graph with one protocol instance per node.
type Network struct {
	g        *graph.Graph
	procs    []Protocol
	ctxs     []Context
	faults   FaultModel
	reliable bool
	relCfg   ReliableConfig
	sent     []int
	byType   map[string]int
	rounds   int
	seq      int // next global send sequence number
	trace    []RoundStats
	tracer   obs.Tracer
	stage    string
	ctx      context.Context
	shards   int // requested shard count; <= 0 = one shard
	shardsOn int // shards the last Run used
	par      int // requested worker parallelism; <= 0 = GOMAXPROCS
	parOn    int // workers the last Run used
}

// Option configures a Network.
type Option func(*Network)

// WithFaults installs a fault model deciding the fate of every link-level
// delivery (loss, bursts, crashes, duplication). A nil model delivers
// everything exactly once.
func WithFaults(fm FaultModel) Option {
	return func(n *Network) { n.faults = fm }
}

// WithTracer attaches a structured-event sink observing the run: stage
// boundaries with wall time, every send/deliver/drop, per-round
// summaries, protocol state transitions, and the Reliable shim's
// retransmission bookkeeping. A nil tracer (the default) costs one
// predicted branch per operation; events are built only when a tracer is
// installed, and nothing the tracer observes feeds back into the run, so
// traced and untraced executions are bit-identical.
func WithTracer(t obs.Tracer) Option {
	return func(n *Network) { n.tracer = t }
}

// WithStage labels the run's trace events with a stage name. The protocol
// drivers set their canonical names ("cluster", "connector", "ldel");
// callers composing their own networks may override.
func WithStage(name string) Option {
	return func(n *Network) { n.stage = name }
}

// WithContext attaches a cancellation context to the run: Run checks it
// once per round and, when it is canceled (deadline hit, caller cancel),
// stops and returns a *CanceledError instead of spinning to the round
// budget. A nil context (the default) disables the check. Cancellation is
// the one intentionally nondeterministic escape hatch — how many rounds
// execute before the deadline fires depends on wall-clock speed — so
// callers needing bit-identical output must not race a deadline.
func WithContext(ctx context.Context) Option {
	return func(n *Network) { n.ctx = ctx }
}

// WithShards runs the network on p shards: nodes are partitioned into p
// uniform contiguous ID ranges, fixed for the whole run, each round's
// deliveries and Ticks run concurrently across the shards, and
// shard-local staging, counters, and trace events are merged
// deterministically at the phase barriers.
// Results — the computed protocol state, message counters, round counts,
// and the protocol-level trace event stream — are bit-identical for any
// p (see DESIGN.md §12). p is clamped to the node count; p <= 0 (the
// default) means one shard. A fault model that does not implement
// FaultSharder cannot be split into independent per-shard instances; such
// runs use one shard (ShardsUsed reports what actually ran).
func WithShards(p int) Option {
	return func(n *Network) { n.shards = p }
}

// WithParallelism bounds the worker pool the kernel runs its deliver and
// tick phases on: k worker goroutines execute the shards of each phase,
// k <= 0 (the default) means one worker per available CPU (GOMAXPROCS),
// and the effective value is clamped to the shard count. Parallelism is
// pure mechanism — results, traces, and seq numbers are bit-identical for
// every k, because nothing observable leaves a shard until the
// deterministic merge barrier (see DESIGN.md §13). It has no effect on a
// one-shard run.
func WithParallelism(k int) Option {
	return func(n *Network) { n.par = k }
}

// WithReliability wraps every protocol in the Reliable ack/retransmission
// shim, making the run loss-tolerant: under any fault model that delivers
// each message eventually, the wrapped protocols compute exactly what they
// compute on a lossless network. The run then terminates when every node
// reports Done (in-flight shim bookkeeping traffic does not delay the
// verdict).
func WithReliability(cfg ReliableConfig) Option {
	return func(n *Network) {
		n.reliable = true
		n.relCfg = cfg.withDefaults()
	}
}

// NewNetwork builds a network over g, creating one protocol per node with
// newProc. The graph must not be mutated during a run.
func NewNetwork(g *graph.Graph, newProc func(id int) Protocol, opts ...Option) *Network {
	n := &Network{
		g:      g,
		procs:  make([]Protocol, g.N()),
		ctxs:   make([]Context, g.N()),
		sent:   make([]int, g.N()),
		byType: make(map[string]int),
	}
	for _, opt := range opts {
		opt(n)
	}
	for i := range n.procs {
		n.procs[i] = newProc(i)
		if n.reliable {
			n.procs[i] = NewReliable(n.procs[i], n.relCfg)
		}
		n.ctxs[i] = Context{net: n, id: i}
	}
	return n
}

// Run executes the protocol until quiescence or until maxRounds rounds have
// elapsed (0 means a default of 10·n + 50 rounds). It returns the number of
// rounds executed.
//
// Each round is the two phases of the kernel (shard.go): every shard
// delivers its nodes' mail, then every shard Ticks its nodes, with a
// deterministic merge after each phase. With one shard — the default —
// the phases run inline on the caller's goroutine.
func (n *Network) Run(maxRounds int) (int, error) {
	if maxRounds <= 0 {
		maxRounds = 10*n.g.N() + 50
	}
	start := time.Now()
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{Kind: obs.KindStageStart, Stage: n.stage,
			From: obs.NoNode, To: obs.NoNode, N: n.g.N()})
	}
	ex := n.newShardExec()
	par := n.par
	if par <= 0 {
		par = defaultParallelism()
	}
	n.shardsOn, n.parOn = len(ex.shards), min(par, len(ex.shards))
	if n.parOn > 1 {
		ex.pool = newPhasePool(ex.shards, n.parOn)
		defer ex.pool.close()
	}
	finish := func(err error) (int, error) {
		ex.emitShardMetrics()
		return n.rounds, n.finishTrace(start, err)
	}
	// Init runs in node-ID order on the caller's goroutine; its broadcasts
	// land in the shard staging buffers (the Contexts are already wired).
	// It is merged as a round-0 tick batch: no deliver phase ran, so the
	// deliver counts are zero and every Init broadcast numbers from the
	// tick bases — node-ID order again.
	for i := range n.procs {
		n.procs[i].Init(&n.ctxs[i])
	}
	ex.tickMerge()
	for round := 1; round <= maxRounds; round++ {
		if n.ctx != nil && n.ctx.Err() != nil {
			return finish(&CanceledError{Rounds: n.rounds, Cause: n.ctx.Err()})
		}
		n.rounds = round

		// Deliver: receivers in ID order; at each receiver, messages in
		// (sender, seq) order. The fault model decides per receiver how
		// many copies arrive.
		ex.each(func(sh *shardState) { sh.deliver(round) })
		delivered := ex.deliverMerge()
		ex.each(func(sh *shardState) { sh.tick(round) })
		sent := ex.tickMerge()

		n.trace = append(n.trace, RoundStats{Round: round, Delivered: delivered, Sent: sent})
		if n.tracer != nil {
			n.tracer.Emit(obs.Event{Kind: obs.KindRound, Stage: n.stage, Round: round,
				From: obs.NoNode, To: obs.NoNode, Sent: sent, Delivered: delivered})
		}

		// Termination. In reliable mode Done subsumes delivery: a Reliable
		// node reports Done only once its payloads are acknowledged and
		// consumed everywhere, so leftover shim bookkeeping in flight does
		// not keep the run alive. In plain mode quiescence is the classic
		// global condition: nothing in flight and everyone Done.
		if n.reliable {
			if n.allDone() {
				return finish(nil)
			}
		} else if sent == 0 && n.allDone() {
			return finish(nil)
		}

		// A long not-yet-quiescent stretch is the interesting part of a
		// lossy run; snapshot it periodically so a trace of a wedged run
		// shows the wait, not just the post-mortem.
		if n.tracer != nil && round%quiesceSnapshotEvery == 0 {
			notDone := 0
			for _, p := range n.procs {
				if !p.Done() {
					notDone++
				}
			}
			n.tracer.Emit(obs.Event{Kind: obs.KindQuiesceWait, Stage: n.stage, Round: round,
				From: obs.NoNode, To: obs.NoNode, N: notDone, Sent: sent})
		}
	}
	// ex.inFlight holds the final round's broadcasts by type: the
	// undelivered traffic.
	inFlight := make(map[string]int, len(ex.inFlight))
	for t, c := range ex.inFlight {
		inFlight[t] = c
	}
	return finish(n.stuckError(inFlight))
}

// quiesceSnapshotEvery is the period, in rounds, of KindQuiesceWait
// snapshots during a traced run that has not yet gone quiescent.
const quiesceSnapshotEvery = 64

// finishTrace closes the stage in the trace — stuck-node post-mortems on
// failure, then the stage_end record with rounds, total sends, and wall
// time — and passes err through.
func (n *Network) finishTrace(start time.Time, err error) error {
	if n.tracer == nil {
		return err
	}
	note := ""
	if err != nil {
		note = err.Error()
		var qe *QuiescenceError
		if errors.As(err, &qe) {
			for _, id := range qe.NotDone {
				n.tracer.Emit(obs.Event{Kind: obs.KindStuck, Stage: n.stage, Round: n.rounds,
					From: id, To: obs.NoNode, Note: qe.Reasons[id]})
			}
		}
	}
	n.tracer.Emit(obs.Event{Kind: obs.KindStageEnd, Stage: n.stage, Round: n.rounds,
		From: obs.NoNode, To: obs.NoNode, N: n.TotalSent(),
		WallNS: time.Since(start).Nanoseconds(), Note: note})
	return err
}

// stuckError builds the QuiescenceError: the nodes that were not Done
// (with self-diagnoses where available) and the supplied in-flight tally.
func (n *Network) stuckError(inFlight map[string]int) error {
	e := &QuiescenceError{
		Rounds:   n.rounds,
		InFlight: inFlight,
		Reasons:  make(map[int]string),
	}
	for id, p := range n.procs {
		if p.Done() {
			continue
		}
		e.NotDone = append(e.NotDone, id)
		if sr, ok := p.(StuckReporter); ok {
			e.Reasons[id] = sr.StuckReason()
		}
	}
	return e
}

func (n *Network) allDone() bool {
	for _, p := range n.procs {
		if !p.Done() {
			return false
		}
	}
	return true
}

// Protocol returns the protocol instance of node id, for extracting results
// after the run. When the network runs under WithReliability, the wrapped
// inner protocol is returned, so result extraction is identical on lossless
// and loss-tolerant runs.
func (n *Network) Protocol(id int) Protocol {
	if r, ok := n.procs[id].(*Reliable); ok {
		return r.Inner()
	}
	return n.procs[id]
}

// Rounds returns the number of rounds executed so far.
func (n *Network) Rounds() int { return n.rounds }

// ShardsUsed returns the number of shards the last Run actually executed
// on: the WithShards value clamped to the node count, or 1 by default and
// when the fault model cannot be split (0 before the first Run).
func (n *Network) ShardsUsed() int { return n.shardsOn }

// ParallelismUsed returns the number of phase workers the last Run
// actually executed with: the resolved WithParallelism value (defaulted
// to GOMAXPROCS, clamped to the shard count), or 0 before the first Run.
func (n *Network) ParallelismUsed() int { return n.parOn }

// ReliableNodeStats returns each node's ack/retransmission shim counters
// for a network run under WithReliability — the per-node give-up ledger a
// degraded-mode health report is built from. It returns nil for plain
// networks.
func (n *Network) ReliableNodeStats() []ReliableStats {
	if !n.reliable {
		return nil
	}
	out := make([]ReliableStats, len(n.procs))
	for id, p := range n.procs {
		if r, ok := p.(*Reliable); ok {
			out[id] = r.Stats()
		}
	}
	return out
}

// NotDone returns the IDs of nodes whose protocol has not reported Done,
// in increasing order — the stuck set of a run that was cut short.
func (n *Network) NotDone() []int {
	var out []int
	for id, p := range n.procs {
		if !p.Done() {
			out = append(out, id)
		}
	}
	return out
}

// Sent returns the number of messages node id has broadcast.
func (n *Network) Sent(id int) int { return n.sent[id] }

// SentAll returns a copy of the per-node send counters.
func (n *Network) SentAll() []int {
	out := make([]int, len(n.sent))
	copy(out, n.sent)
	return out
}

// SentByType returns a copy of the per-message-type send counters.
func (n *Network) SentByType() map[string]int {
	out := make(map[string]int, len(n.byType))
	for k, v := range n.byType {
		out[k] = v
	}
	return out
}

// TotalSent returns the total number of messages broadcast by all nodes.
func (n *Network) TotalSent() int {
	var total int
	for _, s := range n.sent {
		total += s
	}
	return total
}

// RoundStats describes one executed round.
type RoundStats struct {
	// Round is the 1-based round number.
	Round int
	// Delivered is the number of message deliveries (per-receiver).
	Delivered int
	// Sent is the number of broadcasts issued during the round.
	Sent int
}

// Trace returns per-round statistics of the completed run. Tracing is
// always on; the slice is a copy.
func (n *Network) Trace() []RoundStats {
	out := make([]RoundStats, len(n.trace))
	copy(out, n.trace)
	return out
}
