// Package serve is the long-lived topology service: it owns one maintained
// network instance (internal/maintain), ingests churn event batches as
// epochs, and publishes an immutable, epoch-tagged snapshot of the live
// topology per batch. The concurrency contract is single-writer /
// many-reader with copy-on-write publication:
//
//   - the writer (Apply) holds the server mutex, patches the backbone
//     incrementally via maintain.State — falling back to a from-scratch
//     re-clustering when a batch invalidates too much — and then builds a
//     fresh Epoch whose graphs, positions, dominator lists and router are
//     copied or frozen, sharing nothing mutable with the maintained state;
//   - readers call Current (one atomic pointer load, never a lock) and
//     execute route/topology/health queries entirely against the pinned
//     Epoch, so a query sees exactly one epoch end to end and never blocks
//     on — or is blocked by — the writer.
//
// The paper's construction is local precisely so the backbone survives a
// live network; this package is where the repo stops rebuilding from
// scratch and starts serving.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"geospanner/internal/cluster"
	"geospanner/internal/connector"
	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/health"
	"geospanner/internal/maintain"
	"geospanner/internal/obs"
	"geospanner/internal/routing"
	"geospanner/internal/wal"
)

// Stage is the label of serve-layer events in traces and metrics rollups.
const Stage = "serve"

// ErrNodeDown is returned by route queries whose endpoint is dead in the
// pinned epoch.
var ErrNodeDown = errors.New("serve: node is down")

// ErrDegraded is returned by Apply while the server is in read-only
// degraded mode: persistent storage failure exhausted the append retry
// budget, so new epochs are rejected (readers keep serving the last
// published epoch) until Resync confirms the disk is healthy again.
var ErrDegraded = errors.New("serve: degraded: write-ahead log unavailable, server is read-only")

// Write-path retry defaults: a failed WAL append is retried twice, each
// attempt preceded by a forced compaction (retention frees covered
// segments — the ENOSPC recovery) and an exponentially growing backoff.
const (
	DefaultWALRetries      = 2
	DefaultWALRetryBackoff = 2 * time.Millisecond
)

// Option configures a Server.
type Option func(*Server)

// WithTracer attaches an observability sink; the server emits one
// obs.KindEpoch and one obs.KindSnapshot event per applied epoch.
func WithTracer(t obs.Tracer) Option { return func(s *Server) { s.tracer = t } }

// WithFallbackFraction overrides the role-churn fraction above which an
// epoch re-clusters from scratch (maintain.DefaultFallbackFraction by
// default; <= 0 disables the fallback). A durable server records the
// fraction in every snapshot header, so Recover needs no explicit option:
// pass one only to deliberately override what the log recorded.
func WithFallbackFraction(f float64) Option {
	return func(s *Server) { s.fallbackFrac, s.fallbackSet = f, true }
}

// WithWALRetry tunes the append retry budget: a failed append is retried
// up to `retries` more times (after a forced compaction and backoff);
// exhausting the budget flips the server into read-only degraded mode.
// retries < 0 disables retrying (first failure degrades); backoff <= 0
// keeps the default.
func WithWALRetry(retries int, backoff time.Duration) Option {
	return func(s *Server) {
		s.retries = retries
		if backoff > 0 {
			s.retryBackoff = backoff
		}
	}
}

// WithPatchScope overrides the witness-patch scope cap: the fraction of
// alive nodes a batch's witness scope may reach before the epoch falls
// back to a full structure recompute
// (maintain.DefaultPatchScopeFraction by default; 1 patches everything;
// negative rebuilds every structural epoch from scratch — the
// measurement baseline). The knob never changes the published topology
// — a patched epoch is bit-identical to a from-scratch rebuild — only how
// much work each epoch does.
func WithPatchScope(f float64) Option {
	return func(s *Server) { s.patchScope = f }
}

// WithWAL makes the server durable: every Apply appends the epoch's event
// batch to a write-ahead log in dir — before the new snapshot is
// published, so an acknowledged epoch is a durable epoch — and the log
// periodically compacts behind a checkpoint of the maintained state. New
// refuses a directory that already holds a log (recover it with Recover
// instead of silently shadowing it). Durability defaults: fsync every
// append, checkpoint every wal.DefaultSnapshotEvery epochs.
func WithWAL(dir string) Option { return func(s *Server) { s.walDir = dir } }

// WithWALConfig is WithWAL with explicit log tuning (snapshot cadence,
// segment rotation, filesystem) — the knob tests and experiments use.
func WithWALConfig(dir string, cfg wal.Config) Option {
	return func(s *Server) { s.walDir, s.walCfg = dir, cfg }
}

// Server owns a maintained topology and serves epoch snapshots of it.
type Server struct {
	mu           sync.Mutex // serializes writers (Apply); readers never take it
	st           *maintain.State
	seq          uint64
	fallbackFrac float64
	fallbackSet  bool // WithFallbackFraction given explicitly
	patchScope   float64
	tracer       obs.Tracer

	walDir       string
	walCfg       wal.Config
	wal          *wal.Log
	retries      int
	retryBackoff time.Duration

	cur atomic.Pointer[Epoch]

	// Degraded mode: set under mu, read lock-free by readers (Health,
	// Stats, the HTTP handlers).
	degraded       atomic.Bool
	degradedReason atomic.Value // string

	// Cumulative counters. The writer-side ones are only written under mu
	// but are atomics so Stats can read them from any goroutine.
	epochs, events, applied, rejected  atomic.Int64
	roleChanges, recomputes, fallbacks atomic.Int64
	patched, patchFallbacks            atomic.Int64
	kindApplied                        [maintain.NumEventKinds]atomic.Int64
	kindRejected                       [maintain.NumEventKinds]atomic.Int64
	walErrors                          atomic.Int64
	degradedEntries, degradedExits     atomic.Int64
	routeQueries, routeFailures        atomic.Int64
	topologyQueries, healthQueries     atomic.Int64
}

// New builds a server over its own copy of the positions, derives the
// initial backbone, and publishes epoch 0. The initial derivation is not
// counted as a recompute: the recompute-ratio metric measures maintenance,
// not construction.
func New(pts []geom.Point, radius float64, opts ...Option) (*Server, error) {
	s := configure(opts)
	s.st = maintain.New(append([]geom.Point(nil), pts...), radius)
	if err := s.start(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return s, nil
}

// configure returns a server carrying the defaults with opts applied; the
// constructors then attach the maintained state and call start.
func configure(opts []Option) *Server {
	s := &Server{
		fallbackFrac: maintain.DefaultFallbackFraction,
		retries:      DefaultWALRetries,
		retryBackoff: DefaultWALRetryBackoff,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// start derives the backbone of the maintained state, publishes it as
// epoch s.seq, and — when WithWAL asked for durability and no recovered
// log is attached yet — starts a fresh log at that epoch.
func (s *Server) start() error {
	s.st.PatchScopeFraction = s.patchScope
	conn, pldel, err := s.st.Structures()
	if err != nil {
		return fmt.Errorf("backbone at epoch %d: %w", s.seq, err)
	}
	s.cur.Store(s.buildEpoch(s.seq, conn, pldel, EpochStats{}))
	if s.walDir != "" && s.wal == nil {
		s.wal, err = wal.Create(s.walDir, s.st, s.seq, s.fallbackFrac, s.walCfg)
	}
	return err
}

// RecoverInfo reports what Recover reconstructed.
type RecoverInfo struct {
	// Seq is the recovered epoch sequence number.
	Seq uint64
	// SnapshotSeq is the checkpoint the replay started from.
	SnapshotSeq uint64
	// Replayed counts log records applied on top of the snapshot.
	Replayed int
	// Segments counts the log segments the replay scanned.
	Segments int
	// FallbackFrac is the fallback fraction replay ran with — recorded in
	// the snapshot header unless WithFallbackFraction overrode it.
	FallbackFrac float64
	// TruncatedBytes counts torn or corrupt tail bytes dropped from the
	// log (0 after a clean shutdown).
	TruncatedBytes int64
}

// Recover rebuilds a server from the write-ahead log in dir: it loads the
// newest checkpoint, replays the logged epochs through the same
// deterministic maintenance path Apply uses, truncates any torn tail, and
// publishes the recovered epoch. Because the stack is deterministic, the
// recovered topology — roles, positions, backbone — is bit-identical to
// the crashed server's last durable epoch. The fallback fraction replay
// needs is read from the snapshot header (the log is self-describing);
// WithFallbackFraction overrides it, which only makes sense when
// deliberately diverging from what the crashed server ran with. The
// returned server keeps logging to dir.
func Recover(dir string, opts ...Option) (*Server, RecoverInfo, error) {
	s := configure(opts)
	frac := math.NaN() // read it from the snapshot header
	if s.fallbackSet {
		frac = s.fallbackFrac
	}
	log, res, err := wal.Recover(dir, frac, s.walCfg)
	if err != nil {
		return nil, RecoverInfo{}, fmt.Errorf("serve: recover: %w", err)
	}
	info := RecoverInfo{
		Seq:            res.Seq,
		SnapshotSeq:    res.SnapshotSeq,
		Replayed:       res.Replayed,
		Segments:       res.Segments,
		FallbackFrac:   res.FallbackFrac,
		TruncatedBytes: res.TruncatedBytes,
	}
	s.fallbackFrac = res.FallbackFrac
	s.st, s.seq, s.wal, s.walDir = res.State, res.Seq, log, dir
	if err := s.start(); err != nil {
		log.Close()
		return nil, RecoverInfo{}, fmt.Errorf("serve: recover: %w", err)
	}
	return s, info, nil
}

// Snapshot writes a self-contained, checksummed backup of the maintained
// state at the current epoch to w. Restore round-trips it bit-exactly.
// Snapshot serializes with Apply, so the backup is a consistent epoch
// boundary, never a half-applied batch.
func (s *Server) Snapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return wal.WriteSnapshot(w, s.st, s.seq, s.fallbackFrac)
}

// Restore builds a server from a Snapshot stream, resuming at the backed-up
// epoch with a topology bit-identical to the one serialized and the
// fallback fraction recorded in the backup header (WithFallbackFraction
// overrides it). Combine with WithWAL to start a fresh durable log at the
// restored sequence (the directory must not already hold a log).
func Restore(r io.Reader, opts ...Option) (*Server, error) {
	st, seq, frac, err := wal.ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("serve: restore: %w", err)
	}
	s := configure(opts)
	s.st, s.seq = st, seq
	if !s.fallbackSet {
		s.fallbackFrac = frac
	}
	if err := s.start(); err != nil {
		return nil, fmt.Errorf("serve: restore: %w", err)
	}
	return s, nil
}

// Durable reports whether the server is backed by a write-ahead log.
func (s *Server) Durable() bool { return s.wal != nil }

// Close syncs and releases the write-ahead log; a no-op for a non-durable
// server. Apply fails after Close, but readers keep serving the last
// published epoch.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// Current returns the most recently published epoch. It is a single
// atomic load: readers never block the writer and are never blocked by it.
func (s *Server) Current() *Epoch { return s.cur.Load() }

// Apply ingests one batch of churn events as the next epoch: it patches
// the maintained backbone (or rebuilds it when the patches invalidate too
// much), publishes a fresh immutable snapshot, and returns it. Concurrent
// Apply calls serialize; readers keep serving the previous epoch until the
// new pointer is stored. On a durable server the batch is appended to the
// write-ahead log — and fsync'd, at the configured cadence — before any
// state changes, so every epoch a reader can observe is recoverable.
//
// The storage error policy: a failed append never swaps the snapshot —
// the epoch is rejected and the previous epoch stays current. Transient
// failures are retried (forced compaction to free space, bounded
// exponential backoff); exhausting the budget flips the server into
// read-only degraded mode (ErrDegraded, surfaced through Health, /healthz
// and /v1/stats) until Resync confirms the disk is writable again. A
// checkpoint failure after the epoch is published costs recovery time,
// not correctness, so it is counted (wal_errors) but does not fail the
// epoch. After a planarization failure the maintained roles retain the
// applied events and the log retains the record, keeping log and state
// aligned for recovery.
func (s *Server) Apply(events []maintain.Event) (*Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	if s.degraded.Load() {
		return nil, fmt.Errorf("%w (%s)", ErrDegraded, s.degradedReasonStr())
	}
	if s.wal != nil {
		if err := s.appendWithRetryLocked(s.seq+1, events); err != nil {
			return nil, fmt.Errorf("serve: epoch %d: %w", s.seq+1, err)
		}
	}
	recBefore := s.st.Recomputes
	patBefore := s.st.Patches
	pfbBefore := s.st.PatchFallbacks
	batch := s.st.ApplyBatch(events, s.fallbackFrac)
	s.seq++
	conn, pldel, err := s.st.Structures()
	if err != nil {
		return nil, fmt.Errorf("serve: epoch %d: %w", s.seq, err)
	}
	stats := EpochStats{
		Batch:      batch,
		Recomputed: s.st.Recomputes > recBefore,
		Patched:    s.st.Patches > patBefore,
		WallNS:     time.Since(start).Nanoseconds(),
	}
	ep := s.buildEpoch(s.seq, conn, pldel, stats)
	s.cur.Store(ep)
	if s.wal != nil {
		if _, err := s.wal.MaybeCompact(s.st, s.seq); err != nil {
			// The epoch is durable and published; a failed checkpoint
			// lengthens replay but loses nothing. The next epoch retries.
			s.walErrors.Add(1)
		}
	}

	s.epochs.Add(1)
	s.events.Add(int64(batch.Events))
	s.applied.Add(int64(batch.Applied))
	s.rejected.Add(int64(batch.Rejected))
	s.roleChanges.Add(int64(batch.RoleChanges))
	if stats.Recomputed {
		s.recomputes.Add(1)
	}
	if stats.Patched {
		s.patched.Add(1)
	}
	s.patchFallbacks.Add(int64(s.st.PatchFallbacks - pfbBefore))
	if batch.Fallback {
		s.fallbacks.Add(1)
	}
	for k := range batch.ByKind {
		s.kindApplied[k].Add(int64(batch.ByKind[k].Applied))
		s.kindRejected[k].Add(int64(batch.ByKind[k].Rejected))
	}
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{
			Kind: obs.KindEpoch, Stage: Stage, Round: int(ep.Seq),
			From: obs.NoNode, To: obs.NoNode,
			N: batch.Applied, Delivered: batch.Rejected, Sent: batch.RoleChanges,
			Note: stats.Mode(), WallNS: stats.WallNS,
		})
		s.tracer.Emit(obs.Event{
			Kind: obs.KindSnapshot, Stage: Stage, Round: int(ep.Seq),
			From: obs.NoNode, To: obs.NoNode,
			N: ep.Report.LiveNodes(), Sent: ep.UDG.NumEdges(), Delivered: ep.Backbone.NumEdges(),
		})
	}
	return ep, nil
}

// appendWithRetryLocked is the write-path error policy: append, and on
// failure force a compaction (retention frees every covered segment — the
// ENOSPC escape hatch), heal the log tail, back off, and retry, up to the
// configured budget. Exhausting the budget enters degraded mode. Caller
// holds mu; a nil return means the record is durable.
func (s *Server) appendWithRetryLocked(seq uint64, events []maintain.Event) error {
	retries := s.retries
	if retries < 0 {
		retries = 0 // first failure degrades
	}
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			if cerr := s.wal.ForceCompact(s.st, s.seq); cerr != nil {
				s.walErrors.Add(1)
			}
			if herr := s.wal.Heal(); herr != nil {
				s.walErrors.Add(1)
			}
			time.Sleep(s.retryBackoff << (attempt - 1))
		}
		if err = s.wal.Append(seq, events); err == nil {
			return nil
		}
		s.walErrors.Add(1)
	}
	s.enterDegradedLocked(err.Error())
	return fmt.Errorf("%w: %v", ErrDegraded, err)
}

// enterDegradedLocked flips the server read-only. Caller holds mu.
func (s *Server) enterDegradedLocked(reason string) {
	if s.degraded.Load() {
		return
	}
	s.degradedReason.Store(reason)
	s.degraded.Store(true)
	s.degradedEntries.Add(1)
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{
			Kind: obs.KindDegraded, Stage: Stage, Round: int(s.seq),
			From: obs.NoNode, To: obs.NoNode, Note: "enter",
		})
	}
}

func (s *Server) degradedReasonStr() string {
	if r, ok := s.degradedReason.Load().(string); ok {
		return r
	}
	return ""
}

// Degraded reports whether the server is in read-only degraded mode, with
// the storage error that caused it.
func (s *Server) Degraded() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	return true, s.degradedReasonStr()
}

// Resync probes the durable write path after a storage failure: it heals
// the log (drops any suspect tail bytes, fsyncs the segment and the
// directory) and, if the disk confirms every step, returns the server to
// writable. A no-op on a healthy or non-durable server. The caller
// decides when to probe — on an operator signal, a timer, or a disk-space
// alarm clearing.
func (s *Server) Resync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil || !s.degraded.Load() {
		return nil
	}
	if err := s.wal.Heal(); err != nil {
		s.walErrors.Add(1)
		return fmt.Errorf("serve: resync: %w", err)
	}
	s.degraded.Store(false)
	s.degradedReason.Store("")
	s.degradedExits.Add(1)
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{
			Kind: obs.KindDegraded, Stage: Stage, Round: int(s.seq),
			From: obs.NoNode, To: obs.NoNode, Note: "exit",
		})
	}
	return nil
}

// State exposes the maintained state for in-process drivers (tests, the
// churn experiment). Callers must not mutate it outside Apply.
func (s *Server) State() *maintain.State { return s.st }

// EpochStats is the per-epoch maintenance summary.
type EpochStats struct {
	// Batch is the event-application summary of the epoch's batch.
	Batch maintain.BatchStats
	// Recomputed reports whether the backbone was rebuilt from the
	// maintained roles (false: the cached structures absorbed every event
	// in place — the "skip the recompute" contract).
	Recomputed bool
	// Patched reports that a witness-scoped patch spliced this epoch's
	// events into the cached structures: clustering, connector, and LDel
	// decisions re-run only inside the events' scope, output bit-identical
	// to a rebuild. False with Recomputed false means the batch changed
	// nothing the caches hold and they were simply reused.
	Patched bool
	// WallNS is the wall time of the whole apply (events + derivation +
	// snapshot build).
	WallNS int64
}

// Mode names how the epoch was brought current: "patched", "recomputed",
// or "fallback" — the Note vocabulary of obs.KindEpoch events.
func (st EpochStats) Mode() string {
	switch {
	case st.Batch.Fallback:
		return "fallback"
	case st.Recomputed:
		return "recomputed"
	default:
		return "patched"
	}
}

// Epoch is one published topology snapshot. Everything reachable from an
// Epoch is immutable and internally consistent: the graphs, positions,
// dominator lists and router were all derived from the maintained state at
// the same sequence number, under the writer lock, and share no mutable
// memory with it.
type Epoch struct {
	// Seq is the epoch sequence number; the UDG and Backbone snapshots
	// carry the same number as their tag.
	Seq uint64
	// UDG is the live unit disk graph (dead nodes isolated).
	UDG *graph.Snapshot
	// Backbone is the planarized backbone, LDel(ICDS).
	Backbone *graph.Snapshot
	// Report is the epoch's live health report (health.ModeLive).
	Report *health.Report
	// Stats summarizes the maintenance that produced the epoch.
	Stats EpochStats
	// Created is the publication time (snapshot age = now - Created).
	Created time.Time

	alive      []bool
	status     []cluster.Status
	domsOf     [][]int
	inBackbone []bool
	router     *routing.DSRouter
}

// buildEpoch derives an immutable Epoch from the maintained state. Caller
// holds mu.
func (s *Server) buildEpoch(seq uint64, conn *connector.Result, pldel *graph.Graph, stats EpochStats) *Epoch {
	pts := s.st.Positions()
	alive, status := s.st.Roles()

	liveG := graph.New(pts)
	liveG.AddAll(s.st.AliveGraph())
	bbG := graph.New(pts)
	bbG.AddAll(pldel)

	cl := s.st.Clustering()
	n := len(pts)
	domsOf := make([][]int, n)
	for v := 0; v < n; v++ {
		if len(cl.DominatorsOf[v]) > 0 {
			domsOf[v] = append([]int(nil), cl.DominatorsOf[v]...)
		}
	}
	inBackbone := append([]bool(nil), conn.InBackbone...)

	udgSnap := liveG.SnapshotAt(seq)
	bbSnap := bbG.SnapshotAt(seq)
	router := routing.NewDSRouterFrozen(udgSnap.Frozen, routing.NewPlannerFrozen(bbSnap.Frozen), domsOf, inBackbone)

	return &Epoch{
		Seq:        seq,
		UDG:        udgSnap,
		Backbone:   bbSnap,
		Report:     liveReport(liveG, alive, status),
		Stats:      stats,
		Created:    time.Now(),
		alive:      alive,
		status:     status,
		domsOf:     domsOf,
		inBackbone: inBackbone,
		router:     router,
	}
}

// liveReport builds the per-epoch health report: dead nodes, live
// components, and any uncovered survivors.
func liveReport(liveG *graph.Graph, alive []bool, status []cluster.Status) *health.Report {
	r := &health.Report{Mode: health.ModeLive}
	for v, a := range alive {
		if !a {
			r.DeadNodes = append(r.DeadNodes, v)
		}
	}
	for _, comp := range liveG.Components() {
		if len(comp) == 1 && !alive[comp[0]] {
			continue // dead nodes are isolated singletons of the live graph
		}
		r.Components = append(r.Components, health.Component{Nodes: comp, Complete: true})
	}
	for v, a := range alive {
		if !a || status[v] == cluster.Dominator {
			continue
		}
		covered := false
		for _, u := range liveG.Neighbors(v) {
			if alive[u] && status[u] == cluster.Dominator {
				covered = true
				break
			}
		}
		if !covered {
			r.UncoveredNodes = append(r.UncoveredNodes, v)
		}
	}
	sort.Ints(r.UncoveredNodes)
	return r
}

// N returns the number of node slots, alive or dead.
func (e *Epoch) N() int { return len(e.alive) }

// Fingerprint is a deterministic FNV-1a hash of the epoch's entire
// published topology: sequence number, positions (raw IEEE-754 bits),
// liveness, roles, and both edge sets. Equal fingerprints across a crash
// and recovery mean the recovered epoch is bit-identical to the durable
// one — the check the wal-smoke harness gates on.
func (e *Epoch) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(e.Seq)
	word(uint64(len(e.alive)))
	for v := range e.alive {
		p := e.UDG.Point(v)
		word(math.Float64bits(p.X))
		word(math.Float64bits(p.Y))
		bits := uint64(e.status[v]) << 1
		if e.alive[v] {
			bits |= 1
		}
		if e.inBackbone[v] {
			bits |= 4
		}
		word(bits)
	}
	edges := func(f *graph.Frozen) {
		for v := 0; v < f.N(); v++ {
			for _, u := range f.Neighbors(v) {
				if int(u) > v {
					word(uint64(v)<<32 | uint64(u))
				}
			}
		}
	}
	edges(e.UDG.Frozen)
	edges(e.Backbone.Frozen)
	return h.Sum64()
}

// Alive reports whether node v is alive in this epoch.
func (e *Epoch) Alive(v int) bool { return v >= 0 && v < len(e.alive) && e.alive[v] }

// Route executes dominating-set routing between two alive nodes, entirely
// against this epoch's pinned snapshots.
func (e *Epoch) Route(src, dst int) ([]int, error) {
	if src < 0 || src >= len(e.alive) || dst < 0 || dst >= len(e.alive) {
		return nil, fmt.Errorf("serve: route %d->%d: node out of range [0,%d)", src, dst, len(e.alive))
	}
	if !e.alive[src] {
		return nil, fmt.Errorf("%w: source %d", ErrNodeDown, src)
	}
	if !e.alive[dst] {
		return nil, fmt.Errorf("%w: destination %d", ErrNodeDown, dst)
	}
	return e.router.Route(src, dst, 0)
}

// PathLength returns the Euclidean length of a path at this epoch's
// positions.
func (e *Epoch) PathLength(path []int) float64 {
	var total float64
	for i := 1; i < len(path); i++ {
		total += e.UDG.Point(path[i-1]).Dist(e.UDG.Point(path[i]))
	}
	return total
}

// Topology is the summary answer of a topology query.
type Topology struct {
	Epoch         uint64 `json:"epoch"`
	Nodes         int    `json:"nodes"`
	Alive         int    `json:"alive"`
	UDGEdges      int    `json:"udg_edges"`
	BackboneEdges int    `json:"backbone_edges"`
	Dominators    int    `json:"dominators"`
	BackboneNodes int    `json:"backbone_nodes"`
	Components    int    `json:"components"`
}

// Topology summarizes this epoch's live topology.
func (e *Epoch) Topology() Topology {
	t := Topology{
		Epoch:         e.Seq,
		Nodes:         len(e.alive),
		UDGEdges:      e.UDG.NumEdges(),
		BackboneEdges: e.Backbone.NumEdges(),
		Components:    len(e.Report.Components),
	}
	for v, a := range e.alive {
		if !a {
			continue
		}
		t.Alive++
		if e.status[v] == cluster.Dominator {
			t.Dominators++
		}
		if e.inBackbone[v] {
			t.BackboneNodes++
		}
	}
	return t
}

// Route pins the current epoch, routes on it, and records the query in the
// server's counters. It returns the epoch the query executed against.
func (s *Server) Route(src, dst int) ([]int, uint64, error) {
	ep := s.Current()
	path, err := ep.Route(src, dst)
	s.routeQueries.Add(1)
	if err != nil {
		s.routeFailures.Add(1)
	}
	return path, ep.Seq, err
}

// Topology pins the current epoch and summarizes it.
func (s *Server) Topology() Topology {
	s.topologyQueries.Add(1)
	return s.Current().Topology()
}

// Health pins the current epoch and returns its live report with the
// epoch it describes.
func (s *Server) Health() (*health.Report, uint64) {
	ep := s.Current()
	return s.health(ep), ep.Seq
}

// health counts a health query and returns ep's live report. While the
// server is degraded, the report carries the Degraded flag and the
// storage error (on a copy — the epoch's own report stays immutable).
func (s *Server) health(ep *Epoch) *health.Report {
	s.healthQueries.Add(1)
	if s.degraded.Load() {
		r := *ep.Report
		r.Degraded = true
		r.DegradedReason = s.degradedReasonStr()
		return &r
	}
	return ep.Report
}

// Stats is the cumulative service-level metrics rollup.
type Stats struct {
	Epoch       uint64 `json:"epoch"`
	Epochs      int64  `json:"epochs"`
	Events      int64  `json:"events"`
	Applied     int64  `json:"applied"`
	Rejected    int64  `json:"rejected"`
	RoleChanges int64  `json:"role_changes"`
	Recomputes  int64  `json:"recomputes"`
	Fallbacks   int64  `json:"fallbacks"`
	// PatchedEpochs counts epochs absorbed by a witness-scoped patch;
	// PatchFallbacks counts patch attempts abandoned because the witness
	// scope exceeded the patch-scope cap (each such epoch recomputed
	// instead). RecomputeRatio = Recomputes / Epochs is the headline
	// incremental-maintenance metric: how often churn forced a rebuild.
	PatchedEpochs  int64   `json:"patched_epochs"`
	PatchFallbacks int64   `json:"patch_fallbacks"`
	RecomputeRatio float64 `json:"recompute_ratio"`
	// ByKind slices cumulative applied/rejected event counts per event
	// kind ("join", "leave", "crash", "move").
	ByKind          map[string]KindStats `json:"by_kind,omitempty"`
	RouteQueries    int64                `json:"route_queries"`
	RouteFailures   int64                `json:"route_failures"`
	TopologyQueries int64                `json:"topology_queries"`
	HealthQueries   int64                `json:"health_queries"`
	SnapshotAgeMS   int64                `json:"snapshot_age_ms"`

	// Durability rollup; zero values when the server has no WAL.
	WAL              bool   `json:"wal"`
	WALSegmentBytes  int64  `json:"wal_segment_bytes,omitempty"`
	WALRecords       int64  `json:"wal_records,omitempty"`
	WALLastSeq       uint64 `json:"wal_last_seq,omitempty"`
	WALCheckpointSeq uint64 `json:"wal_checkpoint_seq,omitempty"`
	// WALCheckpointAge counts epochs logged since the last checkpoint.
	WALCheckpointAge int64 `json:"wal_checkpoint_age,omitempty"`
	// WALSyncAgeMS is the wall time since the last fsync.
	WALSyncAgeMS int64 `json:"wal_sync_age_ms,omitempty"`
	// WALSegments counts log segments on disk; WALRetainedBytes is the
	// log's whole footprint (snapshots + retained segments) — bounded
	// retention keeps it from growing monotonically.
	WALSegments      int   `json:"wal_segments,omitempty"`
	WALRetainedBytes int64 `json:"wal_retained_bytes,omitempty"`
	// WALDegraded is true while the server is read-only after persistent
	// storage failure (the ops signal: reads still answer, writes are
	// rejected until a resync). WALErrors counts every storage error the
	// write path observed, transient or not.
	WALDegraded       bool   `json:"wal_degraded"`
	WALDegradedReason string `json:"wal_degraded_reason,omitempty"`
	WALErrors         int64  `json:"wal_errors,omitempty"`
	// WALDegradedEntries / WALDegradedExits count the crossings into and
	// out of degraded mode over the server's lifetime.
	WALDegradedEntries int64 `json:"wal_degraded_entries,omitempty"`
	WALDegradedExits   int64 `json:"wal_degraded_exits,omitempty"`
}

// KindStats is the cumulative applied/rejected split of one event kind.
type KindStats struct {
	Applied  int64 `json:"applied"`
	Rejected int64 `json:"rejected"`
}

// Stats reports the cumulative per-epoch and query counters plus the age
// of the current snapshot.
func (s *Server) Stats() Stats {
	ep := s.Current()
	st := Stats{
		Epoch:           ep.Seq,
		Epochs:          s.epochs.Load(),
		Events:          s.events.Load(),
		Applied:         s.applied.Load(),
		Rejected:        s.rejected.Load(),
		RoleChanges:     s.roleChanges.Load(),
		Recomputes:      s.recomputes.Load(),
		Fallbacks:       s.fallbacks.Load(),
		PatchedEpochs:   s.patched.Load(),
		PatchFallbacks:  s.patchFallbacks.Load(),
		RouteQueries:    s.routeQueries.Load(),
		RouteFailures:   s.routeFailures.Load(),
		TopologyQueries: s.topologyQueries.Load(),
		HealthQueries:   s.healthQueries.Load(),
		SnapshotAgeMS:   time.Since(ep.Created).Milliseconds(),
	}
	if st.Epochs > 0 {
		st.RecomputeRatio = float64(st.Recomputes) / float64(st.Epochs)
	}
	for k := 0; k < maintain.NumEventKinds; k++ {
		a, r := s.kindApplied[k].Load(), s.kindRejected[k].Load()
		if a == 0 && r == 0 {
			continue
		}
		if st.ByKind == nil {
			st.ByKind = make(map[string]KindStats, maintain.NumEventKinds)
		}
		st.ByKind[maintain.EventKind(k).String()] = KindStats{Applied: a, Rejected: r}
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		st.WAL = true
		st.WALSegmentBytes = ws.SegmentBytes
		st.WALRecords = ws.SegmentRecords
		st.WALLastSeq = ws.LastSeq
		st.WALCheckpointSeq = ws.SnapshotSeq
		st.WALCheckpointAge = ws.SnapshotAge
		st.WALSyncAgeMS = time.Since(ws.LastSync).Milliseconds()
		st.WALSegments = ws.Segments
		st.WALRetainedBytes = ws.RetainedBytes
		st.WALDegraded, st.WALDegradedReason = s.Degraded()
		st.WALErrors = s.walErrors.Load()
		st.WALDegradedEntries = s.degradedEntries.Load()
		st.WALDegradedExits = s.degradedExits.Load()
	}
	return st
}
