package sim

// This file is the simulator's execution kernel: the bulk-synchronous
// round semantics of the package doc, executed by P shards (WithShards,
// one by default) on a bounded worker pool (WithParallelism), with
// bit-identical results for any shard count and any parallelism. Run in
// sim.go drives the round loop; this file holds the shard machinery.
//
// Partitioning is contiguous and uniform: shard s owns the node IDs
// [starts[s], starts[s+1]), with starts[s] = s·n/P, fixed for the whole
// run. Within a round the kernel runs two phases with a serial merge
// barrier after each:
//
//  1. Deliver — each shard routes the previous round's staged broadcasts
//     into pooled per-node mailboxes for the receivers it owns, then
//     drains the mailboxes in receiver-ID order, consulting its own
//     fault-model instance and calling Handle.
//  2. Tick — each shard runs Tick on its nodes in ID order.
//
// Cross-shard hand-off is sender-side staged: Broadcast appends one
// staged copy per destination shard that owns at least one neighbor of
// the sender to the sending shard's stage[dst] buffer. No shard ever
// writes another shard's state — within a phase, shard s writes only its
// own staging, mailboxes, counters, and event buffer, and reads other
// shards' previous-round staging, which is frozen at the barrier. The
// kernel is therefore race-free by confinement, not by locking.
//
// Send sequence numbers are assigned without materializing a global
// outbox: each broadcast gets a per-shard per-round ordinal, and the
// merge barrier assigns each shard a contiguous seq base per phase in
// shard-index order. Because the contiguous partition makes shard-index
// order equal node-ID order, ordinal + base is exactly the seq a single
// global counter would hand out in node-ID order, and receivers
// reconstruct it in O(1) when they consume a staged copy — the merge
// itself is O(P), not O(M). Within a receiver's mailbox, copies arrive in
// global seq order because delivery walks the staged batches in seq
// order: first every source shard's deliver-phase batch (the stage
// prefix recorded by split), then every source shard's tick-phase batch,
// source shards ascending.
//
// Everything else a shard produces — trace events, per-type send counts,
// delivery counters — lands in shard-local buffers merged in shard-index
// order at the barrier, which reproduces the node-ID total order of the
// package doc. Determinism does not depend on goroutine scheduling at
// all: scheduling can only reorder work *within* a phase, and nothing
// observable escapes a shard until the deterministic merge.
//
// Fault models are consulted concurrently, one shard instance each (see
// FaultSharder in fault.go); a one-shard run consults the model itself,
// unsplit. Per-node protocol state — including the Reliable shim's
// ack/retransmission bookkeeping — is only ever touched by the owning
// shard, so protocols need no locking.
//
// Delivery cost is O(Σ deg(sender)) routing work per round — each staged
// copy is routed by binary search over the sender's neighbor list — and
// the per-round slice churn is recycled: staging buffers ping-pong across
// rounds and mailboxes come from per-shard free lists whose hit rate is
// reported through the tracer (obs.KindShard).

import (
	"sort"
	"time"

	"geospanner/internal/obs"
)

// mailboxPool is a per-shard free list of mailbox buffers. Mailboxes are
// handed out only for receivers that actually get mail this round, so in
// the late, sparse rounds of a run the pool shrinks the working set to the
// handful of still-active nodes. hits/misses feed the obs.KindShard
// metrics: a warm pool (high hit rate) means the delivery path has stopped
// allocating.
type mailboxPool struct {
	free         [][]envelope
	hits, misses int
}

// get returns an empty mailbox, recycling a previously returned buffer
// when one is available.
func (p *mailboxPool) get() []envelope {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		p.hits++
		return b
	}
	p.misses++
	return make([]envelope, 0, 8)
}

// put returns a drained mailbox to the free list. Message references are
// cleared so a pooled buffer does not pin delivered payloads.
func (p *mailboxPool) put(b []envelope) {
	for i := range b {
		b[i].msg = nil
	}
	p.free = append(p.free, b[:0])
}

// stagedEnv is one staged copy of a broadcast, parked in the sending
// shard's stage[dst] buffer until the destination shard consumes it next
// round. ord is the sender shard's per-round broadcast ordinal; the
// consumer reconstructs the global send sequence number from it and the
// shard's merged seq bases (see shardExec.seqOf).
type stagedEnv struct {
	from int
	ord  int
	msg  Message
}

// shardState is everything one shard owns: its node range, its fault-model
// instance, its staging and mailbox buffers, and the local counters and
// event buffer that absorb output until the merge. All fields are written
// only by the owning shard during a phase (or by the coordinator between
// phases); other shards read only prevStage/prevSplit, which are frozen.
type shardState struct {
	net    *Network
	ex     *shardExec
	idx    int
	lo, hi int // owned node IDs: [lo, hi)
	faults FaultModel

	// ordn counts the shard's broadcasts this round; it is the staged
	// copies' ord source and is folded into seq bases at the merges.
	ordn int

	// stage[d] accumulates this round's staged copies destined for shard
	// d; split[d] is the length of its deliver-phase prefix, recorded at
	// the end of the deliver phase. prevStage/prevSplit are last round's,
	// being consumed this round; the coordinator ping-pongs the pairs at
	// the tick merge, and the shard clears the recycled buffers in its
	// next deliver prologue.
	stage, prevStage [][]stagedEnv
	split, prevSplit []int

	// Phase-local output, drained by the merges.
	events    []obs.Event
	byType    map[string]int // this round's broadcasts by type
	delivered int

	// Mailboxes, indexed by id-lo; nil when the node got no mail.
	mail [][]envelope
	pool mailboxPool

	// workNS accumulates the shard's deliver+tick wall time, the load
	// signal of the obs.KindShard report.
	workNS int64
}

// broadcast is Context.Broadcast's radio path: it bumps the node's send
// counter and fills shard-local buffers. One staged copy is appended per
// destination shard owning at least one neighbor of the sender — the
// sorted neighbor list is walked once, skipping shard by shard. n.sent is
// indexed by the broadcasting node, which belongs to exactly one shard,
// so the write is race-free without atomics.
func (sh *shardState) broadcast(c *Context, m Message) {
	n := sh.net
	n.sent[c.id]++
	sh.byType[m.Type()]++
	ord := sh.ordn
	sh.ordn++
	starts := sh.ex.starts
	nn := n.g.N()
	nbrs := n.g.Neighbors(c.id)
	for j := 0; j < len(nbrs); {
		d := ownerOf(starts, nbrs[j])
		sh.stage[d] = append(sh.stage[d], stagedEnv{from: c.id, ord: ord, msg: m})
		end := nn
		if d+1 < len(starts) {
			end = starts[d+1]
		}
		for j < len(nbrs) && nbrs[j] < end {
			j++
		}
	}
	if n.tracer != nil {
		sh.events = append(sh.events, obs.Event{Kind: obs.KindSend, Stage: n.stage, Round: n.rounds,
			Type: m.Type(), From: c.id, To: obs.NoNode, Bytes: obs.SizeOf(m)})
	}
}

// deliver consumes the previous round's staged broadcasts addressed to
// this shard — column sh.idx of every source shard's staging — and drains
// them: receivers in ID order, each mailbox in global send-order. Staged
// batches are walked in seq order — deliver-phase prefixes of every
// source shard first, then tick-phase suffixes, source shards ascending —
// so mailbox append order IS seq order.
func (sh *shardState) deliver(round int) {
	start := time.Now()
	n := sh.net
	ex := sh.ex
	g := n.g

	// Recycle the staging buffers the ping-pong handed back: their
	// contents were consumed a round ago, so dropping the message
	// references here cannot free anything still in flight.
	for d := range sh.stage {
		row := sh.stage[d]
		for i := range row {
			row[i].msg = nil
		}
		sh.stage[d] = row[:0]
		sh.split[d] = 0
	}

	for pass := 0; pass < 2; pass++ {
		for s := range ex.shards {
			src := &ex.shards[s]
			batch := src.prevStage[sh.idx]
			if pass == 0 {
				batch = batch[:src.prevSplit[sh.idx]]
			} else {
				batch = batch[src.prevSplit[sh.idx]:]
			}
			for i := range batch {
				e := &batch[i]
				seq := ex.seqOf(s, e.ord)
				nbrs := g.Neighbors(e.from)
				j := sort.SearchInts(nbrs, sh.lo)
				for ; j < len(nbrs) && nbrs[j] < sh.hi; j++ {
					off := nbrs[j] - sh.lo
					if sh.mail[off] == nil {
						sh.mail[off] = sh.pool.get()
					}
					sh.mail[off] = append(sh.mail[off], envelope{from: e.from, seq: seq, msg: e.msg})
				}
			}
		}
	}

	for off := range sh.mail {
		box := sh.mail[off]
		if box == nil {
			continue
		}
		id := sh.lo + off
		for i := range box {
			env := &box[i]
			copies := 1
			if sh.faults != nil {
				copies = sh.faults.Copies(round, env.from, id, env.seq, env.msg)
			}
			if n.tracer != nil {
				kind, cnt := obs.KindDeliver, copies
				if copies == 0 {
					kind, cnt = obs.KindDrop, 0
				}
				sh.events = append(sh.events, obs.Event{Kind: kind, Stage: n.stage, Round: round,
					Type: env.msg.Type(), From: env.from, To: id, N: cnt})
			}
			for c := 0; c < copies; c++ {
				n.procs[id].Handle(&n.ctxs[id], env.from, env.msg)
				sh.delivered++
			}
		}
		sh.mail[off] = nil
		sh.pool.put(box)
	}

	// Freeze the deliver-phase staging prefix: everything staged from here
	// on belongs to the tick batch, which consumers replay second.
	for d := range sh.stage {
		sh.split[d] = len(sh.stage[d])
	}
	sh.workNS += time.Since(start).Nanoseconds()
}

// tick runs the round's Tick on the shard's nodes in ID order.
func (sh *shardState) tick(round int) {
	start := time.Now()
	n := sh.net
	for id := sh.lo; id < sh.hi; id++ {
		n.procs[id].Tick(&n.ctxs[id], round)
	}
	sh.workNS += time.Since(start).Nanoseconds()
}

// ownerOf returns the index of the shard owning node v under the
// contiguous partition described by starts (starts[s] is shard s's first
// node; starts[0] is always 0).
func ownerOf(starts []int, v int) int {
	return sort.SearchInts(starts, v+1) - 1
}

// shardExec drives the shard set for one run: the partition, the merged
// seq bases, and the worker pool. All of its fields are written only by
// the coordinator between phases.
type shardExec struct {
	net    *Network
	shards []shardState
	pool   *phasePool // nil when phases run inline (parallelism 1)

	// starts is the partition: shard s owns [starts[s], starts[s+1]).
	starts []int

	// Per-shard seq bases of the round being consumed (prev*) and the
	// round being produced: shard s's deliver-phase broadcast k carries
	// seq dBase[s]+k, its tick-phase broadcast k carries tBase[s]+k, and
	// dCount[s] splits the ordinals between the two phases.
	dCount, dBase, tBase             []int
	prevDCount, prevDBase, prevTBase []int

	// inFlight tallies the last merged round's broadcasts by type: after
	// the final round it is exactly the undelivered traffic a
	// QuiescenceError reports.
	inFlight map[string]int
}

// end returns the first node ID beyond shard s's range.
func (ex *shardExec) end(s int) int {
	if s+1 < len(ex.starts) {
		return ex.starts[s+1]
	}
	return ex.net.g.N()
}

// seqOf reconstructs the global send sequence number of source shard s's
// previous-round broadcast with ordinal ord.
func (ex *shardExec) seqOf(s, ord int) int {
	if ord < ex.prevDCount[s] {
		return ex.prevDBase[s] + ord
	}
	return ex.prevTBase[s] + ord - ex.prevDCount[s]
}

// newShardExec partitions the network into the configured number of
// shards — clamped to the node count, and at least one, so an empty
// network runs on one empty shard — and wires each node's Context to its
// shard. A fault model that cannot provide independent per-shard
// instances (see FaultSharder) runs unsplit on one shard.
func (n *Network) newShardExec() *shardExec {
	nn := n.g.N()
	p := max(min(n.shards, nn), 1)
	fms := []FaultModel{n.faults}
	if p > 1 {
		if split, ok := shardFaultModels(n.faults, p); ok {
			fms = split
		} else {
			p = 1
		}
	}
	ex := &shardExec{
		net:        n,
		shards:     make([]shardState, p),
		starts:     make([]int, p),
		dCount:     make([]int, p),
		dBase:      make([]int, p),
		tBase:      make([]int, p),
		prevDCount: make([]int, p),
		prevDBase:  make([]int, p),
		prevTBase:  make([]int, p),
		inFlight:   make(map[string]int),
	}
	for s := 0; s < p; s++ {
		ex.starts[s] = s * nn / p
	}
	for s := 0; s < p; s++ {
		lo, hi := ex.starts[s], ex.end(s)
		sh := &ex.shards[s]
		*sh = shardState{
			net:       n,
			ex:        ex,
			idx:       s,
			lo:        lo,
			hi:        hi,
			faults:    fms[s],
			byType:    make(map[string]int),
			mail:      make([][]envelope, hi-lo),
			stage:     make([][]stagedEnv, p),
			prevStage: make([][]stagedEnv, p),
			split:     make([]int, p),
			prevSplit: make([]int, p),
		}
		for id := lo; id < hi; id++ {
			n.ctxs[id].sh = sh
		}
	}
	return ex
}

// each runs fn on every shard — on the worker pool when one is attached,
// inline otherwise — and returns when all shards are done (the phase
// barrier).
func (ex *shardExec) each(fn func(sh *shardState)) {
	if ex.pool != nil {
		ex.pool.run(fn)
		return
	}
	for s := range ex.shards {
		fn(&ex.shards[s])
	}
}

// replayEvents forwards a shard's buffered trace events to the tracer.
// Replaying at the barrier in shard-index order — node-ID order, for a
// contiguous partition — makes the emit order independent of the shard
// count.
func (ex *shardExec) replayEvents(sh *shardState) {
	if ex.net.tracer == nil || len(sh.events) == 0 {
		return
	}
	for i := range sh.events {
		ex.net.tracer.Emit(sh.events[i])
	}
	sh.events = sh.events[:0]
}

// deliverMerge is the barrier after the deliver phase: it replays trace
// events, records each shard's deliver-phase broadcast count, and assigns
// the shards' seq bases in shard-index order — exactly the numbers a
// single counter would hand out one broadcast at a time in node-ID order.
// It returns the phase's delivery count.
func (ex *shardExec) deliverMerge() int {
	n := ex.net
	delivered := 0
	for s := range ex.shards {
		sh := &ex.shards[s]
		ex.replayEvents(sh)
		ex.dCount[s] = sh.ordn
		ex.dBase[s] = n.seq
		n.seq += sh.ordn
		delivered += sh.delivered
		sh.delivered = 0
	}
	return delivered
}

// tickMerge is the barrier after the tick phase: it replays trace events,
// assigns the tick-phase seq bases, folds the per-type counters, resets
// the per-round shard state, and ping-pongs the staging buffers — this
// round's stage becomes next round's prevStage, and the consumed buffers
// come back for recycling. It returns the round's broadcast count.
func (ex *shardExec) tickMerge() int {
	n := ex.net
	sent := 0
	clear(ex.inFlight)
	for s := range ex.shards {
		sh := &ex.shards[s]
		ex.replayEvents(sh)
		ex.tBase[s] = n.seq
		n.seq += sh.ordn - ex.dCount[s]
		sent += sh.ordn
		sh.ordn = 0
		for t, c := range sh.byType {
			n.byType[t] += c
			ex.inFlight[t] += c
		}
		clear(sh.byType)
		sh.stage, sh.prevStage = sh.prevStage, sh.stage
		sh.split, sh.prevSplit = sh.prevSplit, sh.split
	}
	ex.prevDCount, ex.dCount = ex.dCount, ex.prevDCount
	ex.prevDBase, ex.dBase = ex.dBase, ex.prevDBase
	ex.prevTBase, ex.tBase = ex.tBase, ex.prevTBase
	return sent
}

// emitShardMetrics reports each shard's load and pool behavior through the
// tracer: From is the shard index, N the number of nodes it owns, WallNS
// its cumulative deliver+tick wall time, Sent/Delivered the mailbox pool
// hits/misses. These are executor events — they describe the machine, not
// the protocol — so they are the one part of a traced run that legitimately
// varies with the shard count (and, via WallNS, across runs); determinism
// comparisons across kernel configurations strip them (obs.ExecutorKind)
// along with wall time. A one-shard run has no balance to report and
// emits none, so default traces carry protocol events only.
func (ex *shardExec) emitShardMetrics() {
	n := ex.net
	if n.tracer == nil || len(ex.shards) == 1 {
		return
	}
	for s := range ex.shards {
		sh := &ex.shards[s]
		n.tracer.Emit(obs.Event{Kind: obs.KindShard, Stage: n.stage, Round: n.rounds,
			From: sh.idx, To: obs.NoNode, N: sh.hi - sh.lo, WallNS: sh.workNS,
			Sent: sh.pool.hits, Delivered: sh.pool.misses})
	}
}
