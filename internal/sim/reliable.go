package sim

import (
	"fmt"
	"strings"

	"geospanner/internal/obs"
)

// This file implements the loss-tolerant protocol runtime: an
// acknowledgment/retransmission shim (Reliable) that wraps any Protocol
// and lets it run unchanged — and compute bit-identical results — on a
// radio channel that loses, reorders across rounds, or duplicates
// messages, provided every message is delivered eventually under
// retransmission.
//
// The paper's protocols are bulk-synchronous: they rely on the round
// barrier ("by round r every message sent in rounds < r has been
// delivered"), which a lossy channel breaks. Reliable restores the barrier
// with an α-synchronizer over virtual rounds (phases):
//
//   - Every message the inner protocol broadcasts during phase p is carried
//     as a payload slot {phase, seq, count} inside the shim's envelopes; a
//     phase with no sends emits one empty marker slot, so neighbors can
//     always prove a phase complete (count received = count announced).
//   - Slots are retransmitted every Timeout real rounds until every
//     neighbor acknowledges them (acks ride in the same envelopes, and are
//     re-sent whenever a duplicate betrays a lost ack).
//   - A node executes virtual phase p+1 — delivering the buffered phase-p
//     payloads of its neighbors to the inner protocol in (neighbor, seq)
//     order and then calling the inner Tick(p+1) — once it holds every
//     phase-p slot of every neighbor. Virtual time never outruns real
//     time (phase ≤ round), and a node that falls behind catches up by
//     executing several phases in one real round.
//
// Within a phase, an inner protocol therefore sees exactly the message set
// it would see in the corresponding round of a lossless run; since the
// paper's protocols are order-insensitive across senders within one round,
// their outputs are bit-identical. The shim's own envelopes are what the
// radio actually transmits, so the network's send counters price the cost
// of loss tolerance: one envelope per node per active round, plus
// retransmissions.
//
// Termination: a Reliable node reports Done once its inner protocol is
// Done, every real payload it sent is acknowledged by all neighbors, and
// every real payload it received has been consumed. The Network (the
// global observer that has always decided quiescence) ends the run when
// all nodes are Done; residual marker/ack traffic does not prolong it. A
// run that cannot converge — a crashed neighbor, retries exhausted —
// surfaces a QuiescenceError naming the stuck nodes and their reasons.

// ReliableConfig tunes the ack/retransmission shim. The zero value uses
// the defaults: Timeout 3, unlimited retries.
type ReliableConfig struct {
	// Timeout is the number of real rounds a transmitted slot waits for
	// acknowledgments before it is retransmitted. The minimum useful value
	// is 2 (one round to deliver the slot, one to deliver the ack);
	// values below 2 are raised to the default.
	Timeout int
	// MaxRetries bounds the retransmissions of a single slot; 0 means
	// unlimited (bounded only by the run's round budget). A slot that
	// exhausts its retries is abandoned and the node reports itself stuck.
	MaxRetries int
}

func (c ReliableConfig) withDefaults() ReliableConfig {
	if c.Timeout < 2 {
		c.Timeout = 3
	}
	return c
}

// relData is one payload slot: the Seq-th of Count messages its origin
// broadcast during virtual phase Phase. A nil Payload is the synchronizer
// marker of an otherwise silent phase.
type relData struct {
	Phase, Seq, Count int
	Payload           Message
}

// relAck acknowledges receipt of Origin's slot (Phase, Seq).
type relAck struct {
	Origin, Phase, Seq int
}

// relEnvelope is the one message type the shim puts on the radio: new and
// retransmitted slots plus piggybacked acknowledgments.
type relEnvelope struct {
	Phase int
	Done  bool
	Data  []relData
	Acks  []relAck
}

// Type implements Message.
func (relEnvelope) Type() string { return "rel" }

// relSlot is the sender-side state of one payload slot.
type relSlot struct {
	phase, seq, count int
	payload           Message
	acked             map[int]bool
	nAcked            int
	lastTx            int
	tries             int
}

// peerState is everything a node knows about one neighbor's stream.
type peerState struct {
	counts map[int]int          // phase -> announced slot count
	gotN   map[int]int          // phase -> distinct slots received
	have   map[int]map[int]bool // phase -> seq -> received (dedup)
	pay    map[int]map[int]Message
	done   bool
	phase  int
}

func newPeerState() *peerState {
	return &peerState{
		counts: make(map[int]int),
		gotN:   make(map[int]int),
		have:   make(map[int]map[int]bool),
		pay:    make(map[int]map[int]Message),
	}
}

// ReliableStats counts the work the shim did on top of the inner protocol.
type ReliableStats struct {
	// Envelopes is the number of radio broadcasts the shim issued.
	Envelopes int
	// Retransmissions counts slot retransmissions after the first send.
	Retransmissions int
	// Duplicates counts received slots suppressed as already-seen.
	Duplicates int
	// Phases is the number of virtual rounds executed.
	Phases int
	// Slots is the number of payload slots emitted (markers included).
	Slots int
	// RealPayloads is the number of inner-protocol messages carried.
	RealPayloads int
	// GaveUp counts slots abandoned after MaxRetries retransmissions.
	GaveUp int
}

// Add accumulates other into s.
func (s *ReliableStats) Add(other ReliableStats) {
	s.Envelopes += other.Envelopes
	s.Retransmissions += other.Retransmissions
	s.Duplicates += other.Duplicates
	s.Phases += other.Phases
	s.Slots += other.Slots
	s.RealPayloads += other.RealPayloads
	s.GaveUp += other.GaveUp
}

// Reliable wraps an inner Protocol with the ack/retransmission shim.
type Reliable struct {
	inner    Protocol
	cfg      ReliableConfig
	id       int
	nbrs     []int
	innerCtx Context
	captured []Message

	phase        int
	slotsByPhase [][]*relSlot
	newSlots     []*relSlot
	acks         []relAck
	peers        map[int]*peerState

	unackedReal     int // real slots of ours not yet acked by every neighbor
	undeliveredReal int // real payloads received but not yet executed
	failed          []*relSlot

	stats ReliableStats
}

var (
	_ Protocol      = (*Reliable)(nil)
	_ StuckReporter = (*Reliable)(nil)
)

// NewReliable wraps inner in the ack/retransmission shim. Networks built
// with WithReliability apply it automatically to every node.
func NewReliable(inner Protocol, cfg ReliableConfig) *Reliable {
	return &Reliable{inner: inner, cfg: cfg.withDefaults()}
}

// Inner returns the wrapped protocol, for result extraction.
func (r *Reliable) Inner() Protocol { return r.inner }

// Stats returns the shim's bookkeeping counters for this node.
func (r *Reliable) Stats() ReliableStats { return r.stats }

// Init implements Protocol: it runs the inner Init, captures its
// broadcasts as phase-0 slots, and transmits the first envelope.
func (r *Reliable) Init(ctx *Context) {
	r.id = ctx.ID()
	r.nbrs = append([]int(nil), ctx.Neighbors()...)
	r.peers = make(map[int]*peerState, len(r.nbrs))
	for _, v := range r.nbrs {
		r.peers[v] = newPeerState()
	}
	// The inner protocol's EmitState (and any shim event emitted while a
	// shard goroutine is executing this node) is buffered in the owning
	// shard rather than hitting the shared tracer concurrently; a node
	// keeps its shard for the whole run, so this long-lived copy may
	// carry it. All other shim state is per-node, so the shim is
	// shard-safe as-is: only the owning shard touches it.
	r.innerCtx = Context{net: ctx.net, id: ctx.id, sh: ctx.sh, send: func(m Message) {
		r.captured = append(r.captured, m)
	}}
	r.inner.Init(&r.innerCtx)
	r.closePhase(0)
	r.flush(ctx, 0)
}

// closePhase turns the inner broadcasts captured during phase p into
// payload slots (or one marker slot for a silent phase) and queues them
// for transmission.
func (r *Reliable) closePhase(p int) {
	payloads := r.captured
	r.captured = nil
	if len(payloads) == 0 {
		payloads = []Message{nil}
	}
	count := len(payloads)
	slots := make([]*relSlot, count)
	for i, pl := range payloads {
		s := &relSlot{phase: p, seq: i, count: count, payload: pl, acked: make(map[int]bool)}
		slots[i] = s
		r.newSlots = append(r.newSlots, s)
		r.stats.Slots++
		if pl != nil {
			r.stats.RealPayloads++
			if len(r.nbrs) > 0 {
				r.unackedReal++
			}
		}
	}
	r.slotsByPhase = append(r.slotsByPhase, slots)
}

func (r *Reliable) slotAt(phase, seq int) *relSlot {
	if phase < 0 || phase >= len(r.slotsByPhase) {
		return nil
	}
	slots := r.slotsByPhase[phase]
	if seq < 0 || seq >= len(slots) {
		return nil
	}
	return slots[seq]
}

// Handle implements Protocol: it records incoming slots (suppressing
// duplicates, re-acknowledging them so a lost ack is repaired) and applies
// incoming acknowledgments to our own slots.
func (r *Reliable) Handle(ctx *Context, from int, m Message) {
	env, ok := m.(relEnvelope)
	if !ok {
		return
	}
	ps := r.peers[from]
	if ps == nil {
		return
	}
	ps.done = env.Done
	if env.Phase > ps.phase {
		ps.phase = env.Phase
	}
	for _, d := range env.Data {
		if ps.have[d.Phase] == nil {
			ps.have[d.Phase] = make(map[int]bool)
		}
		if ps.have[d.Phase][d.Seq] {
			r.stats.Duplicates++
		} else {
			ps.have[d.Phase][d.Seq] = true
			ps.gotN[d.Phase]++
			ps.counts[d.Phase] = d.Count
			if d.Payload != nil {
				if ps.pay[d.Phase] == nil {
					ps.pay[d.Phase] = make(map[int]Message)
				}
				ps.pay[d.Phase][d.Seq] = d.Payload
				r.undeliveredReal++
			}
		}
		// Acknowledge on every receipt: a duplicate means our earlier ack
		// was lost.
		r.acks = append(r.acks, relAck{Origin: from, Phase: d.Phase, Seq: d.Seq})
	}
	for _, a := range env.Acks {
		if a.Origin != r.id {
			continue
		}
		s := r.slotAt(a.Phase, a.Seq)
		if s == nil || s.acked[from] {
			continue
		}
		s.acked[from] = true
		s.nAcked++
		if s.payload != nil && s.nAcked == len(r.nbrs) {
			r.unackedReal--
		}
	}
}

// canExecute reports whether every neighbor's phase p-1 stream is known
// complete, which is the barrier for executing virtual phase p.
func (r *Reliable) canExecute(p int) bool {
	for _, v := range r.nbrs {
		ps := r.peers[v]
		c, ok := ps.counts[p-1]
		if !ok || ps.gotN[p-1] != c {
			return false
		}
	}
	return true
}

// executePhase delivers the buffered phase p-1 payloads to the inner
// protocol in (neighbor ID, seq) order, runs the inner Tick(p), and closes
// the resulting sends as phase-p slots.
func (r *Reliable) executePhase(p int) {
	for _, v := range r.nbrs {
		ps := r.peers[v]
		pays := ps.pay[p-1]
		if len(pays) > 0 {
			count := ps.counts[p-1]
			for seq := 0; seq < count; seq++ {
				if pl, ok := pays[seq]; ok {
					r.undeliveredReal--
					r.inner.Handle(&r.innerCtx, v, pl)
				}
			}
			delete(ps.pay, p-1)
		}
	}
	r.inner.Tick(&r.innerCtx, p)
	r.phase = p
	r.stats.Phases++
	r.closePhase(p)
}

// flush transmits at most one envelope: freshly closed slots, slots whose
// retransmission timeout expired, and pending acknowledgments.
func (r *Reliable) flush(ctx *Context, round int) {
	var data []relData
	retransmitted := 0
	for _, s := range r.newSlots {
		s.lastTx = round
		data = append(data, relData{Phase: s.phase, Seq: s.seq, Count: s.count, Payload: s.payload})
	}
	r.newSlots = r.newSlots[:0]
	for _, slots := range r.slotsByPhase {
		for _, s := range slots {
			if s.nAcked == len(r.nbrs) || s.lastTx == round || round-s.lastTx < r.cfg.Timeout {
				continue
			}
			if r.cfg.MaxRetries > 0 && s.tries >= r.cfg.MaxRetries {
				if s.tries == r.cfg.MaxRetries {
					s.tries++ // record the give-up exactly once
					r.failed = append(r.failed, s)
					r.stats.GaveUp++
					if ctx.tracing() {
						ctx.emit(obs.Event{Kind: obs.KindGiveUp, Stage: ctx.stageName(),
							Round: round, From: r.id, To: obs.NoNode,
							Note: fmt.Sprintf("phase %d seq %d after %d retransmissions", s.phase, s.seq, r.cfg.MaxRetries)})
					}
				}
				continue
			}
			s.tries++
			s.lastTx = round
			r.stats.Retransmissions++
			retransmitted++
			data = append(data, relData{Phase: s.phase, Seq: s.seq, Count: s.count, Payload: s.payload})
		}
	}
	if retransmitted > 0 && ctx.tracing() {
		ctx.emit(obs.Event{Kind: obs.KindRetransmit, Stage: ctx.stageName(),
			Round: round, From: r.id, To: obs.NoNode, N: retransmitted})
	}
	if len(data) == 0 && len(r.acks) == 0 {
		return
	}
	env := relEnvelope{Phase: r.phase, Done: r.inner.Done(), Data: data, Acks: r.acks}
	r.acks = nil
	r.stats.Envelopes++
	ctx.Broadcast(env)
}

// Tick implements Protocol: advance virtual phases as far as the barrier
// allows (never past real time), then transmit.
func (r *Reliable) Tick(ctx *Context, round int) {
	for r.phase < round && r.canExecute(r.phase+1) {
		r.executePhase(r.phase + 1)
	}
	r.flush(ctx, round)
}

// Done implements Protocol: the node is finished once the inner protocol
// is, every real payload it sent has been acknowledged by all neighbors,
// every real payload it received has been consumed, and no slot was
// abandoned. When every node satisfies this, all inner protocols have seen
// all traffic — the lossless run's quiescence condition — so the Network
// ends the run.
func (r *Reliable) Done() bool {
	return r.inner.Done() && r.unackedReal == 0 && r.undeliveredReal == 0 && len(r.failed) == 0
}

// StuckReason implements StuckReporter: a self-diagnosis for
// QuiescenceError explaining what this node is waiting for.
func (r *Reliable) StuckReason() string {
	var parts []string
	if !r.inner.Done() {
		parts = append(parts, fmt.Sprintf("inner protocol not done at phase %d", r.phase))
	}
	if len(r.failed) > 0 {
		s := r.failed[0]
		parts = append(parts, fmt.Sprintf("gave up on %d slot(s) after %d retransmissions (first: phase %d seq %d)",
			len(r.failed), r.cfg.MaxRetries, s.phase, s.seq))
	}
	if r.unackedReal > 0 {
		parts = append(parts, fmt.Sprintf("%d real payload(s) unacknowledged", r.unackedReal))
	}
	if r.undeliveredReal > 0 {
		parts = append(parts, fmt.Sprintf("%d received payload(s) buffered behind the phase barrier", r.undeliveredReal))
	}
	lagging := 0
	for _, v := range r.nbrs {
		ps := r.peers[v]
		c, ok := ps.counts[r.phase]
		if !ok || ps.gotN[r.phase] != c {
			if lagging == 0 {
				got := ps.gotN[r.phase]
				want := "?"
				if ok {
					want = fmt.Sprintf("%d", c)
				}
				parts = append(parts, fmt.Sprintf("waiting on neighbor %d for phase %d (%d/%s slots)",
					v, r.phase, got, want))
			}
			lagging++
		}
	}
	if lagging > 1 {
		parts = append(parts, fmt.Sprintf("%d neighbors lagging in total", lagging))
	}
	if len(parts) == 0 {
		return "no local obstruction (waiting on the rest of the network)"
	}
	return strings.Join(parts, "; ")
}

// ReliableStatsOf sums the shim counters over every node of a network run
// under WithReliability. It returns the zero value for plain networks.
func ReliableStatsOf(n *Network) ReliableStats {
	var total ReliableStats
	for _, p := range n.procs {
		if r, ok := p.(*Reliable); ok {
			total.Add(r.stats)
		}
	}
	return total
}
