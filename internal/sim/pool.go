package sim

// pool.go is the bounded worker pool behind WithParallelism: a fixed set
// of long-lived goroutines that execute the kernel's deliver and tick
// phases. The pool exists so that a run of thousands of rounds does
// not spawn 2·rounds·P goroutines: workers are created once per Run and
// parked on a channel between phases.
//
// Work distribution is dynamic — workers claim shard indices from a
// shared atomic counter — so a slow shard does not leave the other
// workers idle when P > parallelism. Determinism is unaffected: shards
// only touch shard-confined state during a phase, and everything
// observable is merged in shard-index order at the barrier, so which
// worker ran which shard (and in what order) can not leak into results.

import (
	"runtime"
	"sync/atomic"
)

// defaultParallelism is the worker count used when WithParallelism was
// not given: one worker per available CPU, the usual right answer for a
// CPU-bound phase.
func defaultParallelism() int { return runtime.GOMAXPROCS(0) }

// phasePool runs one phase function over every shard using a fixed set of
// workers. It is created by Run when both the shard count and the
// configured parallelism exceed one, and closed when the run returns.
type phasePool struct {
	shards  []shardState
	workers int

	// fn is the current phase body. It is written by the coordinator
	// before the start tokens are sent and read by workers after they
	// receive one; the channel operations order the accesses.
	fn   func(sh *shardState)
	next atomic.Int64

	start chan struct{}
	done  chan struct{}
}

// newPhasePool starts workers goroutines parked on the start channel.
func newPhasePool(shards []shardState, workers int) *phasePool {
	p := &phasePool{
		shards:  shards,
		workers: workers,
		start:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// worker claims shard indices until the phase is exhausted, then reports
// done and parks until the next phase (or exits when the pool closes).
func (p *phasePool) worker() {
	for range p.start {
		for {
			i := int(p.next.Add(1)) - 1
			if i >= len(p.shards) {
				break
			}
			p.fn(&p.shards[i])
		}
		p.done <- struct{}{}
	}
}

// run executes fn on every shard and returns when all shards finished —
// the phase barrier. It must only be called from the coordinating
// goroutine, never concurrently with itself.
func (p *phasePool) run(fn func(sh *shardState)) {
	p.fn = fn
	p.next.Store(0)
	for i := 0; i < p.workers; i++ {
		p.start <- struct{}{}
	}
	for i := 0; i < p.workers; i++ {
		<-p.done
	}
}

// close releases the workers. The pool must be idle (no run in flight).
func (p *phasePool) close() { close(p.start) }
