package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Histogram is a power-of-two-bucket histogram of non-negative integer
// samples: bucket 0 counts zeros, bucket i (i ≥ 1) counts values in
// [2^(i-1), 2^i). It is fixed-size, allocation-free after creation, and
// good to ~2× resolution — enough to see whether per-round message counts
// are flat (the paper's O(1)-per-round claim) or growing.
type Histogram struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets [32]int64
}

// Add records one sample (negative samples clamp to 0).
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[bucketOf(v)]++
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := 1
	for v > 1 && b < 31 {
		v >>= 1
		b++
	}
	return b
}

// bucketHigh is the inclusive upper bound of bucket i.
func bucketHigh(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(1)<<uint(i) - 1
}

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// sample (q in [0,1]); it overestimates by at most 2×.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.Buckets {
		seen += h.Buckets[i]
		if seen >= rank {
			if hi := bucketHigh(i); hi < h.Max {
				return hi
			}
			return h.Max
		}
	}
	return h.Max
}

// String renders the non-empty buckets compactly, e.g.
// "n=9 mean=3.2 max=7 [1:2 2-3:4 4-7:3]".
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f max=%d [", h.Count, h.Mean(), h.Max)
	first := true
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		lo := int64(0)
		if i > 0 {
			lo = bucketHigh(i-1) + 1
		}
		hi := bucketHigh(i)
		if lo == hi {
			fmt.Fprintf(&b, "%d:%d", lo, c)
		} else {
			fmt.Fprintf(&b, "%d-%d:%d", lo, hi, c)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// StageMetrics is the rollup of every event a stage emitted, summed over
// however many runs (trials, workers) fed the Metrics sink.
type StageMetrics struct {
	// Runs counts stage_start events (one per network run).
	Runs int
	// Rounds is the per-run round-count distribution.
	Rounds Histogram
	// Wall is the per-run wall-time distribution in nanoseconds.
	Wall Histogram
	// RoundSent and RoundDelivered are per-round distributions of
	// broadcasts and deliveries — the paper's per-round cost profile.
	RoundSent      Histogram
	RoundDelivered Histogram
	// Sent, Delivered and Dropped total the individual message events.
	Sent, Delivered, Dropped int
	// Bytes totals the sent-message size proxies.
	Bytes int
	// ByType counts broadcasts by message type.
	ByType map[string]int
	// Retransmissions, GiveUps, StateChanges and Stuck count the
	// corresponding events.
	Retransmissions, GiveUps, StateChanges, Stuck int
	// Partitions counts partition events (one per partial build) and
	// Components / IncompleteComponents the per-component outcomes of
	// degraded-mode builds.
	Partitions, Components, IncompleteComponents int
	// ShardReports counts shard events, ShardWall is the per-shard
	// deliver+tick wall-time distribution (its max-vs-mean spread is the
	// load-imbalance signal), ShardMaxWall the single slowest shard seen,
	// and ShardPoolHits / ShardPoolMisses total the mailbox free-list
	// behavior across shards.
	ShardReports                   int
	ShardWall                      Histogram
	ShardMaxWall                   int64
	ShardPoolHits, ShardPoolMisses int
	// Epochs counts maintenance epochs of a live topology service;
	// EpochEvents is the per-epoch applied-event distribution,
	// EpochRejected the total no-op events, EpochRoleChanges the total
	// role churn, and EpochRecomputes / EpochFallbacks the epochs whose
	// backbone was rebuilt (rather than patched in place) and the subset
	// that fell back to a from-scratch re-clustering. EpochPatches counts
	// the epochs a witness-scoped patch absorbed in place. Snapshots
	// counts published epoch snapshots.
	Epochs           int
	EpochEvents      Histogram
	EpochRejected    int
	EpochRoleChanges int
	EpochRecomputes  int
	EpochFallbacks   int
	EpochPatches     int
	Snapshots        int
	// DegradedEntries / DegradedExits count the service's crossings into
	// and out of read-only degraded mode (KindDegraded events).
	DegradedEntries int
	DegradedExits   int
}

// RecomputeRatio returns the fraction of epochs that rebuilt the backbone
// instead of patching the cached structures (0 when no epochs ran) — the
// headline metric of incremental maintenance.
func (s *StageMetrics) RecomputeRatio() float64 {
	if s.Epochs == 0 {
		return 0
	}
	return float64(s.EpochRecomputes) / float64(s.Epochs)
}

// Metrics is the rollup sink: it folds the event stream into per-stage
// counters and histograms. It implements Tracer and can also be fed after
// the fact by replaying recorded events, which is how merged multi-worker
// traces are summarized.
type Metrics struct {
	mu     sync.Mutex
	stages map[string]*StageMetrics
	order  []string
}

// NewMetrics returns an empty rollup sink.
func NewMetrics() *Metrics {
	return &Metrics{stages: make(map[string]*StageMetrics)}
}

func (m *Metrics) stage(name string) *StageMetrics {
	s := m.stages[name]
	if s == nil {
		s = &StageMetrics{ByType: make(map[string]int)}
		m.stages[name] = s
		m.order = append(m.order, name)
	}
	return s
}

// Emit implements Tracer.
func (m *Metrics) Emit(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stage(e.Stage)
	switch e.Kind {
	case KindStageStart:
		s.Runs++
	case KindStageEnd:
		s.Rounds.Add(int64(e.Round))
		s.Wall.Add(e.WallNS)
	case KindRound:
		s.RoundSent.Add(int64(e.Sent))
		s.RoundDelivered.Add(int64(e.Delivered))
	case KindSend:
		s.Sent++
		s.Bytes += e.Bytes
		s.ByType[e.Type]++
	case KindDeliver:
		s.Delivered += e.N
	case KindDrop:
		s.Dropped++
	case KindState:
		s.StateChanges++
	case KindRetransmit:
		s.Retransmissions += e.N
	case KindGiveUp:
		s.GiveUps++
	case KindStuck:
		s.Stuck++
	case KindPartition:
		s.Partitions++
	case KindComponent:
		s.Components++
		if e.Note != "complete" {
			s.IncompleteComponents++
		}
	case KindShard:
		s.ShardReports++
		s.ShardWall.Add(e.WallNS)
		if e.WallNS > s.ShardMaxWall {
			s.ShardMaxWall = e.WallNS
		}
		s.ShardPoolHits += e.Sent
		s.ShardPoolMisses += e.Delivered
	case KindEpoch:
		s.Epochs++
		s.EpochEvents.Add(int64(e.N))
		s.EpochRejected += e.Delivered
		s.EpochRoleChanges += e.Sent
		switch e.Note {
		case "patched":
			s.EpochPatches++
		case "recomputed":
			s.EpochRecomputes++
		case "fallback":
			s.EpochRecomputes++
			s.EpochFallbacks++
		}
	case KindSnapshot:
		s.Snapshots++
	case KindDegraded:
		if e.Note == "exit" {
			s.DegradedExits++
		} else {
			s.DegradedEntries++
		}
	}
}

// Stages returns the stage names in first-seen order.
func (m *Metrics) Stages() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.order...)
}

// Stage returns a copy of the named stage's rollup (zero value when the
// stage never emitted).
func (m *Metrics) Stage(name string) StageMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stages[name]
	if s == nil {
		return StageMetrics{ByType: map[string]int{}}
	}
	cp := *s
	cp.ByType = make(map[string]int, len(s.ByType))
	for k, v := range s.ByType {
		cp.ByType[k] = v
	}
	return cp
}

// String renders the rollup as a multi-line report: one block per stage
// with counters, the per-type send breakdown, and the per-round
// histograms.
func (m *Metrics) String() string {
	var b strings.Builder
	for _, name := range m.Stages() {
		s := m.Stage(name)
		label := name
		if label == "" {
			label = "(unnamed)"
		}
		fmt.Fprintf(&b, "stage %s: runs=%d rounds_avg=%.1f rounds_max=%d sent=%d delivered=%d dropped=%d retrans=%d giveup=%d states=%d stuck=%d wall_ms=%.2f\n",
			label, s.Runs, s.Rounds.Mean(), s.Rounds.Max, s.Sent,
			s.Delivered, s.Dropped, s.Retransmissions, s.GiveUps,
			s.StateChanges, s.Stuck, float64(s.Wall.Sum)/1e6)
		if s.Partitions > 0 {
			fmt.Fprintf(&b, "  partitions=%d components=%d incomplete=%d\n",
				s.Partitions, s.Components, s.IncompleteComponents)
		}
		if s.ShardReports > 0 {
			// Imbalance is slowest shard over mean shard: 1.00 = perfectly
			// balanced, 2.00 = one shard did twice the average work.
			imbalance := 1.0
			if mean := s.ShardWall.Mean(); mean > 0 {
				imbalance = float64(s.ShardMaxWall) / mean
			}
			hitRate := 0.0
			if tot := s.ShardPoolHits + s.ShardPoolMisses; tot > 0 {
				hitRate = float64(s.ShardPoolHits) / float64(tot)
			}
			fmt.Fprintf(&b, "  shards=%d imbalance=%.2f pool_hit=%.0f%% shard_wall %s\n",
				s.ShardReports, imbalance, hitRate*100, s.ShardWall.String())
		}
		if s.Epochs > 0 {
			fmt.Fprintf(&b, "  epochs=%d snapshots=%d recompute_ratio=%.2f patched=%d fallbacks=%d rejected=%d role_changes=%d applied %s\n",
				s.Epochs, s.Snapshots, s.RecomputeRatio(), s.EpochPatches,
				s.EpochFallbacks, s.EpochRejected, s.EpochRoleChanges,
				s.EpochEvents.String())
		}
		if s.DegradedEntries > 0 || s.DegradedExits > 0 {
			fmt.Fprintf(&b, "  degraded entries=%d exits=%d\n", s.DegradedEntries, s.DegradedExits)
		}
		types := make([]string, 0, len(s.ByType))
		for t := range s.ByType {
			types = append(types, t)
		}
		sort.Strings(types)
		for _, t := range types {
			fmt.Fprintf(&b, "  type %-14s %d\n", t, s.ByType[t])
		}
		fmt.Fprintf(&b, "  per-round sent      %s\n", s.RoundSent.String())
		fmt.Fprintf(&b, "  per-round delivered %s\n", s.RoundDelivered.String())
	}
	return b.String()
}
