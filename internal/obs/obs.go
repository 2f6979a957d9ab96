// Package obs is the observability layer of the protocol stack: a
// structured event model for everything a simulated run does (stage
// start/end with wall time, per-round message batches, individual
// send/deliver/drop decisions, protocol state transitions, the Reliable
// shim's retransmission and give-up activity, and quiescence-wait
// snapshots), a minimal Tracer sink contract, and built-in sinks — an
// in-memory ring buffer (Ring), a JSONL stream writer (JSONL), and a
// rollup aggregator (Metrics).
//
// The contract with the simulator is pay-for-use: a nil Tracer costs one
// predicted branch per hot-path operation and zero allocations; event
// construction happens only behind the nil check. Sinks must therefore
// tolerate being called from exactly one goroutine per simulated network;
// the built-in sinks additionally lock so that merged multi-worker use is
// safe.
//
// Determinism: every field of every event except WallNS is a pure function
// of the simulated run, so two runs of the same instance produce the same
// event stream (the property the golden-trace tests pin). WallNS is the
// one wall-clock field; sinks that need byte-identical output across runs
// strip it (see JSONL.OmitWall).
package obs

import "fmt"

// Kind names the event type. Kinds are stable strings (they appear in
// JSONL traces and golden files); add new kinds rather than renaming.
type Kind string

// The event kinds emitted by the simulator and protocol drivers.
const (
	// KindStageStart opens a protocol stage: Stage is the stage name and
	// N the number of nodes in the network.
	KindStageStart Kind = "stage_start"
	// KindStageEnd closes a stage: Round is the number of rounds executed,
	// N the total messages broadcast, WallNS the elapsed wall time, and
	// Note the error text when the stage failed.
	KindStageEnd Kind = "stage_end"
	// KindRound summarizes one executed round: Delivered message
	// deliveries happened and Sent broadcasts were issued during it.
	KindRound Kind = "round"
	// KindSend is one radio broadcast: From is the sender, Type the
	// message type, Bytes the encoded-size proxy of the payload.
	KindSend Kind = "send"
	// KindDeliver is the delivery of one broadcast at one receiver: N is
	// the number of copies the fault model produced (1 normally, more
	// under duplication).
	KindDeliver Kind = "deliver"
	// KindDrop is a fault-model loss: the broadcast From→To of Type was
	// not delivered.
	KindDrop Kind = "drop"
	// KindState is a protocol state transition at node From: Type is the
	// new state name (e.g. "dominator", "connector", "ldel:propose").
	KindState Kind = "state"
	// KindRetransmit reports that node From retransmitted N payload slots
	// of the Reliable shim in one flush.
	KindRetransmit Kind = "retransmit"
	// KindGiveUp reports that node From abandoned a slot after exhausting
	// its retries; Note identifies the slot.
	KindGiveUp Kind = "give_up"
	// KindQuiesceWait is a periodic snapshot of a network that has not yet
	// gone quiescent: N nodes were not Done and Sent messages were in
	// flight at Round.
	KindQuiesceWait Kind = "quiesce_wait"
	// KindStuck is the post-mortem of a run that exhausted its round
	// budget: one event per not-Done node From, with its self-diagnosis in
	// Note.
	KindStuck Kind = "stuck"
	// KindPartition opens a partition-aware (partial-results) build: N is
	// the number of live components and Sent the number of dead nodes.
	KindPartition Kind = "partition"
	// KindComponent closes one component of a partial build: N is the
	// component size, Round the total rounds its stages ran, and Note
	// "complete" or the name of the stage that failed.
	KindComponent Kind = "component"
	// KindShard is the simulation kernel's per-shard load report, emitted
	// once per shard at stage end when the run executed on more than one
	// shard: From is the shard index, N the number of nodes the shard
	// owns, WallNS its cumulative deliver+tick wall time, and
	// Sent/Delivered the mailbox pool's hit/miss counts. Shard events describe the executor,
	// not the protocol — they are the one part of a trace that varies with
	// the shard count, so determinism comparisons across shard counts
	// strip them along with WallNS.
	KindShard Kind = "shard"
	// KindEpoch closes one maintenance epoch of a long-lived topology
	// service: Round is the epoch sequence number, N the events applied,
	// Delivered the events rejected as no-ops, Sent the roles changed, and
	// Note how the backbone was brought current ("patched" when the cached
	// structures absorbed the batch, "recomputed" when they were rebuilt,
	// "fallback" when role churn forced a from-scratch re-clustering).
	// WallNS is the apply wall time — as everywhere, the one
	// nondeterministic field.
	KindEpoch Kind = "epoch"
	// KindSnapshot reports the immutable snapshot published for an epoch:
	// Round is the epoch, N the alive node count, Sent the live UDG edge
	// count, and Delivered the planar backbone edge count.
	KindSnapshot Kind = "snapshot"
	// KindDegraded marks a durable topology service crossing its
	// degraded-mode boundary: Note is "enter" when persistent storage
	// failure flips the service read-only and "exit" when a resync
	// restores the durable write path; Round is the epoch sequence at the
	// crossing.
	KindDegraded Kind = "degraded"
)

// knownKinds is the schema: the set of kinds a valid trace may contain.
var knownKinds = map[Kind]bool{
	KindStageStart: true, KindStageEnd: true, KindRound: true,
	KindSend: true, KindDeliver: true, KindDrop: true, KindState: true,
	KindRetransmit: true, KindGiveUp: true, KindQuiesceWait: true,
	KindStuck: true, KindPartition: true, KindComponent: true,
	KindShard: true,
	KindEpoch: true, KindSnapshot: true, KindDegraded: true,
}

// KnownKind reports whether k is part of the trace schema.
func KnownKind(k Kind) bool { return knownKinds[k] }

// ExecutorKind reports whether k describes the execution machinery (shard
// load reports) rather than the simulated protocol. Executor events
// legitimately vary with the shard count and worker pool, so determinism
// comparisons across kernel configurations strip them; the protocol-level
// stream that remains is bit-identical.
func ExecutorKind(k Kind) bool { return k == KindShard }

// NoNode is the From/To value of events that do not concern a node.
const NoNode = -1

// Event is one trace record. Unused numeric fields are zero except From
// and To, which use NoNode (-1) so that node 0 remains representable.
type Event struct {
	// Trial tags the experiment trial (or BuildMany index) the event
	// belongs to when per-worker traces are merged; 0 for single runs.
	Trial int `json:"trial,omitempty"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Stage is the protocol stage ("cluster", "connector", "ldel", …).
	Stage string `json:"stage,omitempty"`
	// Round is the simulator round.
	Round int `json:"round,omitempty"`
	// Type is the message type, or the state name for KindState.
	Type string `json:"type,omitempty"`
	// From is the sending (or transitioning, or stuck) node, NoNode if
	// not applicable.
	From int `json:"from"`
	// To is the receiving node, NoNode if not applicable.
	To int `json:"to"`
	// N is a kind-specific count (nodes, copies, slots, totals).
	N int `json:"n,omitempty"`
	// Bytes is the encoded-size proxy of a sent message.
	Bytes int `json:"bytes,omitempty"`
	// Sent and Delivered are the per-round counters of KindRound and
	// KindQuiesceWait events.
	Sent      int `json:"sent,omitempty"`
	Delivered int `json:"delivered,omitempty"`
	// WallNS is elapsed wall-clock nanoseconds (KindStageEnd only). It is
	// the only nondeterministic field of the model.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Note carries free-text diagnostics (error text, stuck reasons).
	Note string `json:"note,omitempty"`
}

// Tracer is the sink contract. Emit must not retain e beyond the call
// (sinks copy what they keep) and must not block the simulation.
type Tracer interface {
	Emit(e Event)
}

// Multi fans every event out to each sink in order.
func Multi(sinks ...Tracer) Tracer {
	// Flatten and drop nils so callers can compose optional sinks.
	out := make(multi, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

type multi []Tracer

// Emit implements Tracer.
func (m multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Func adapts a function to the Tracer interface.
type Func func(e Event)

// Emit implements Tracer.
func (f Func) Emit(e Event) { f(e) }

// Sized is an optional message extension: a message that knows its
// encoded size reports it here and the simulator uses it as the Bytes
// proxy of its send events.
type Sized interface {
	TraceBytes() int
}

// SizeOf returns the bytes proxy of a message payload: TraceBytes when the
// value implements Sized, otherwise the length of its formatted value — a
// crude but deterministic stand-in for encoded size, good enough to rank
// message types by weight in a trace.
func SizeOf(v any) int {
	if s, ok := v.(Sized); ok {
		return s.TraceBytes()
	}
	return len(fmt.Sprintf("%v", v))
}
