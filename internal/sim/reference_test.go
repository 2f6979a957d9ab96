package sim

import (
	"time"

	"geospanner/internal/obs"
)

// runReference executes n with the simulator's original sequential round
// loop — one global outbox, delivered each round by scanning every
// receiver against every in-flight envelope — and is the oracle the
// kernel is checked against: TestShardEquivalence requires every shard
// count and parallelism cell of Run to match it bit for bit. It shares nothing with the kernel's delivery path: broadcasts are
// captured through Context's send hook, so only the Network's counters,
// trace, and error helpers are common.
func runReference(n *Network, maxRounds int) (int, error) {
	if maxRounds <= 0 {
		maxRounds = 10*n.g.N() + 50
	}
	start := time.Now()
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{Kind: obs.KindStageStart, Stage: n.stage,
			From: obs.NoNode, To: obs.NoNode, N: n.g.N()})
	}
	var outbox []envelope // messages sent this round, delivered next round
	for i := range n.ctxs {
		id := i
		n.ctxs[i].send = func(m Message) {
			n.sent[id]++
			n.byType[m.Type()]++
			outbox = append(outbox, envelope{from: id, seq: n.seq, msg: m})
			n.seq++
			if n.tracer != nil {
				n.tracer.Emit(obs.Event{Kind: obs.KindSend, Stage: n.stage, Round: n.rounds,
					Type: m.Type(), From: id, To: obs.NoNode, Bytes: obs.SizeOf(m)})
			}
		}
	}
	for i := range n.procs {
		n.procs[i].Init(&n.ctxs[i])
	}
	for round := 1; round <= maxRounds; round++ {
		if n.ctx != nil && n.ctx.Err() != nil {
			return n.rounds, n.finishTrace(start, &CanceledError{Rounds: n.rounds, Cause: n.ctx.Err()})
		}
		n.rounds = round
		inbox := outbox
		outbox = nil

		// Deliver: receivers in ID order; at each receiver, messages in
		// (sender, seq) order — inbox is already seq-ordered and seq is
		// globally increasing, so a stable pass per receiver suffices.
		delivered := 0
		for id := 0; id < n.g.N(); id++ {
			for _, env := range inbox {
				if !n.g.HasEdge(env.from, id) {
					continue
				}
				copies := 1
				if n.faults != nil {
					copies = n.faults.Copies(round, env.from, id, env.seq, env.msg)
				}
				if n.tracer != nil {
					kind, cnt := obs.KindDeliver, copies
					if copies == 0 {
						kind, cnt = obs.KindDrop, 0
					}
					n.tracer.Emit(obs.Event{Kind: kind, Stage: n.stage, Round: round,
						Type: env.msg.Type(), From: env.from, To: id, N: cnt})
				}
				for c := 0; c < copies; c++ {
					n.procs[id].Handle(&n.ctxs[id], env.from, env.msg)
					delivered++
				}
			}
		}
		for id := 0; id < n.g.N(); id++ {
			n.procs[id].Tick(&n.ctxs[id], round)
		}
		n.trace = append(n.trace, RoundStats{Round: round, Delivered: delivered, Sent: len(outbox)})
		if n.tracer != nil {
			n.tracer.Emit(obs.Event{Kind: obs.KindRound, Stage: n.stage, Round: round,
				From: obs.NoNode, To: obs.NoNode, Sent: len(outbox), Delivered: delivered})
		}
		if n.reliable {
			if n.allDone() {
				return round, n.finishTrace(start, nil)
			}
		} else if len(outbox) == 0 && n.allDone() {
			return round, n.finishTrace(start, nil)
		}
		if n.tracer != nil && round%quiesceSnapshotEvery == 0 {
			n.tracer.Emit(obs.Event{Kind: obs.KindQuiesceWait, Stage: n.stage, Round: round,
				From: obs.NoNode, To: obs.NoNode, N: len(n.NotDone()), Sent: len(outbox)})
		}
	}
	inFlight := make(map[string]int)
	for _, env := range outbox {
		inFlight[env.msg.Type()]++
	}
	return n.rounds, n.finishTrace(start, n.stuckError(inFlight))
}
