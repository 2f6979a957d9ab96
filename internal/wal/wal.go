// Package wal is the durable topology log: an append-only write-ahead
// log of epoch event batches plus periodic compacted snapshots of the
// maintained state, with crash recovery that restores a state
// bit-identical to the pre-crash server.
//
// A log directory holds one snapshot plus a short chain of segments:
//
//	snap-<seq>.snap   checkpoint of maintain.State at epoch <seq>
//	wal-<base>.log    epoch records with sequence numbers > <base>
//
// Append writes one record per epoch and fsyncs it before returning: an
// epoch acknowledged is an epoch durable. The active segment rotates once
// it reaches Config.SegmentBytes (or SegmentEpochs records): appends move
// to a fresh wal-<last>.log so no single file grows unboundedly. Every
// Config.SnapshotEvery epochs the log compacts: it checkpoints the state,
// starts a fresh segment, and applies the retention rule — a closed
// segment is deleted only once a durable snapshot covers every record in
// it (a segment's records all precede its successor's base, so wal-b is
// deletable exactly when the next segment's base is <= the snapshot seq).
// The directory therefore stays bounded by the churn of one snapshot
// interval.
//
// Recover loads the newest valid snapshot and replays every segment in
// base order, skipping records the snapshot already covers and enforcing
// gap-free sequence numbering across segment boundaries. Because the
// whole stack is deterministic, replay is exact: the recovered roles,
// positions, and derived backbone equal the pre-crash ones bit for bit.
// A torn or corrupt tail (crash mid-write) is truncated at the last
// valid record of the final segment, never fatal; damage inside an
// earlier segment, a sequence gap, or a CRC-valid record with an unknown
// version or kind is fatal, because truncating those would silently
// discard durable data.
//
// Every filesystem operation flows through Config.FS (see vfs.go), so
// each of these claims is drilled under injected torn writes, failing or
// lying fsyncs, ENOSPC, and exhaustive crash points rather than assumed.
package wal

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"geospanner/internal/maintain"
)

// Log configuration defaults.
const (
	// DefaultSnapshotEvery compacts the log every 64 epochs.
	DefaultSnapshotEvery = 64
	// DefaultSegmentBytes rotates the active segment at 4 MiB.
	DefaultSegmentBytes = 4 << 20
)

// ErrExists is returned by Create when the directory already holds a log.
var ErrExists = errors.New("wal: directory already contains a log; recover it instead")

// ErrNoLog is returned by Recover when the directory holds no usable
// snapshot.
var ErrNoLog = errors.New("wal: no snapshot found")

// Config tunes the log's compaction and segment rotation and names the
// filesystem it runs on. The zero value means the defaults.
type Config struct {
	// SnapshotEvery compacts the log every k epochs (default 64; < 0
	// disables compaction).
	SnapshotEvery int
	// SegmentBytes rotates the active segment once it reaches this many
	// bytes (default 4 MiB; < 0 disables size-based rotation). Rotation
	// starts a fresh segment without checkpointing; retention later
	// deletes closed segments wholly covered by a snapshot.
	SegmentBytes int64
	// SegmentEpochs rotates the active segment every k records (<= 0,
	// the default, disables count-based rotation).
	SegmentEpochs int64
	// FS is the filesystem the log runs on (nil means the operating
	// system). Tests and the storage soak inject MemFS to drill torn
	// writes, failing or lying fsyncs, ENOSPC, and crash points.
	FS FS
}

func (c Config) withDefaults() Config {
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	c.FS = fsOrOS(c.FS)
	return c
}

// Log is an open write-ahead log. Append/Compact/Close are single-writer
// (the topology service serializes them under its own lock); Stats may be
// called from any goroutine.
type Log struct {
	dir string
	cfg Config
	fs  FS

	mu         sync.Mutex
	f          File
	frac       float64 // fallback fraction recorded in snapshots
	snapSeq    uint64  // seq of the newest durable snapshot
	base       uint64  // seq preceding the active segment's first record
	last       uint64  // last appended (or replayed) seq
	segBytes   int64
	segRecords int64
	segCount   int
	retained   int64 // closed segments + snapshots on disk, bytes
	tornTail   bool  // suspect bytes past segBytes after a failed write/sync
	lastSync   time.Time
}

// Stats is a point-in-time summary of the log, surfaced by the service's
// /v1/stats.
type Stats struct {
	// SegmentBytes and SegmentRecords size the active segment.
	SegmentBytes   int64
	SegmentRecords int64
	// Segments counts log segments on disk, the active one included.
	Segments int
	// RetainedBytes is the log's whole on-disk footprint: snapshots plus
	// every retained segment. Bounded retention keeps it from growing
	// monotonically across snapshots.
	RetainedBytes int64
	// LastSeq is the last durable epoch sequence number.
	LastSeq uint64
	// SnapshotSeq is the epoch of the newest compacted snapshot.
	SnapshotSeq uint64
	// SnapshotAge counts epochs appended since the snapshot.
	SnapshotAge int64
	// LastSync is the wall time of the last fsync.
	LastSync time.Time
}

func segName(base uint64) string { return fmt.Sprintf("wal-%016x.log", base) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// gen returns the generation a snapshot or segment path encodes: the
// snapshot's epoch, or the sequence number preceding the segment's first
// record.
func gen(path string) uint64 {
	hex := strings.TrimSuffix(strings.TrimSuffix(
		strings.TrimPrefix(strings.TrimPrefix(filepath.Base(path), "snap-"), "wal-"), ".snap"), ".log")
	v, _ := strconv.ParseUint(hex, 16, 64)
	return v
}

// List returns the snapshot and segment files of the log in dir on the
// real filesystem, each sorted by the generation its name encodes, oldest
// first.
func List(dir string) (snaps, segs []string) { return listFS(osFS{}, dir) }

func listFS(fsys FS, dir string) (snaps, segs []string) {
	snaps, _ = fsys.Glob(filepath.Join(dir, "snap-*.snap"))
	segs, _ = fsys.Glob(filepath.Join(dir, "wal-*.log"))
	byGen := func(a, b string) int { return cmp.Compare(gen(a), gen(b)) }
	slices.SortStableFunc(snaps, byGen)
	slices.SortStableFunc(segs, byGen)
	return snaps, segs
}

// Covered reports whether segment segs[i] holds no record past snapSeq,
// so retention may delete it: segment wal-b holds records in (b, b'] where
// b' is the next segment's base, so it is covered exactly when
// b' <= snapSeq. The last segment is never covered. segs is sorted as
// List returns it.
func Covered(segs []string, i int, snapSeq uint64) bool {
	return i+1 < len(segs) && gen(segs[i+1]) <= snapSeq
}

// Exists reports whether dir holds a log (any snapshot or segment file)
// on the real filesystem.
func Exists(dir string) bool { return existsFS(osFS{}, dir) }

func existsFS(fsys FS, dir string) bool {
	snaps, segs := listFS(fsys, dir)
	return len(snaps)+len(segs) > 0
}

// Create initializes a fresh log in dir: a base snapshot of st at seq and
// an empty segment. fallbackFrac is the ApplyBatch fallback fraction the
// server runs with — it is recorded in every snapshot header so Recover
// needs no out-of-band options (NaN records the default). Create fails
// with ErrExists when dir already holds a log.
func Create(dir string, st *maintain.State, seq uint64, fallbackFrac float64, cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	if err := cfg.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	if existsFS(cfg.FS, dir) {
		return nil, fmt.Errorf("%w (%s)", ErrExists, dir)
	}
	if math.IsNaN(fallbackFrac) {
		fallbackFrac = maintain.DefaultFallbackFraction
	}
	l := &Log{dir: dir, cfg: cfg, fs: cfg.FS, frac: fallbackFrac,
		snapSeq: seq, base: seq, last: seq, lastSync: time.Now()}
	if err := l.writeSnapshotFile(st, seq); err != nil {
		return nil, err
	}
	if err := l.openSegment(seq); err != nil {
		return nil, err
	}
	// The empty segment's directory entry must survive a crash before any
	// record in it is acknowledged.
	if err := l.fs.SyncDir(dir); err != nil {
		return nil, err
	}
	l.retainLocked()
	return l, nil
}

// RecoverResult reports what Recover found and did.
type RecoverResult struct {
	// State is the reconstructed maintained state, bit-identical to the
	// pre-crash server's.
	State *maintain.State
	// Seq is the last recovered epoch sequence number.
	Seq uint64
	// SnapshotSeq is the checkpoint the replay started from.
	SnapshotSeq uint64
	// Replayed counts tail records applied on top of the snapshot.
	Replayed int
	// Segments counts the log segments scanned during replay.
	Segments int
	// FallbackFrac is the ApplyBatch fallback fraction replay ran with:
	// the caller's explicit choice, or the one recorded in the snapshot
	// header.
	FallbackFrac float64
	// TruncatedBytes counts torn/corrupt tail bytes dropped from the
	// final segment (0 after a clean shutdown).
	TruncatedBytes int64
}

// Recover loads the newest valid snapshot in dir, replays every segment
// in base order through ApplyBatch, truncates any torn or corrupt tail of
// the final segment, and returns the log open for appending at the
// recovered sequence. Pass NaN as fallbackFrac to replay with the
// fraction recorded in the snapshot header (snapshot format v2; v1
// headers fall back to maintain.DefaultFallbackFraction) — an explicit
// value overrides the header and must match what the crashed server ran
// with, or replay may diverge at fallback boundaries.
func Recover(dir string, fallbackFrac float64, cfg Config) (*Log, *RecoverResult, error) {
	cfg = cfg.withDefaults()
	fsys := cfg.FS
	snaps, segs := listFS(fsys, dir)
	slices.Reverse(snaps) // newest checkpoint first
	var (
		snap    snapshotState
		snapErr error = ErrNoLog
		found   bool
	)
	for _, path := range snaps {
		data, err := fsys.ReadFile(path)
		if err != nil {
			snapErr = err
			continue
		}
		if snap, err = decodeSnapshot(data); err != nil {
			if errors.Is(err, ErrUnsupportedVersion) {
				return nil, nil, fmt.Errorf("wal: %s: %w", filepath.Base(path), err)
			}
			snapErr = err // damaged checkpoint: fall back to an older one
			continue
		}
		found = true
		break
	}
	if !found {
		return nil, nil, fmt.Errorf("wal: recover %s: %w", dir, snapErr)
	}
	frac := fallbackFrac
	if math.IsNaN(frac) {
		frac = snap.frac // NaN in v1 headers, which never recorded it
	}
	if math.IsNaN(frac) {
		frac = maintain.DefaultFallbackFraction
	}
	st, err := maintain.FromRoles(snap.pts, snap.radius, snap.alive, snap.status)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: snapshot %d: %w", snap.seq, err)
	}

	l := &Log{dir: dir, cfg: cfg, fs: fsys, frac: frac,
		snapSeq: snap.seq, base: snap.seq, last: snap.seq, lastSync: time.Now()}
	res := &RecoverResult{State: st, Seq: snap.seq, SnapshotSeq: snap.seq, FallbackFrac: frac}

	var lastValid, lastRecords int64
	for i, path := range segs {
		data, err := fsys.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: recover: %w", err)
		}
		final := i == len(segs)-1
		valid, records := int64(0), int64(0)
		for off := int64(0); off < int64(len(data)); {
			rec, next, err := decodeRecord(data, off)
			if errors.Is(err, errTorn) || errors.Is(err, errCorrupt) {
				if !final {
					// A torn tail means "the crash happened here" — only
					// the final segment can honestly claim that. Damage
					// under acknowledged records is corruption, and
					// truncating it would silently drop durable epochs.
					return nil, nil, fmt.Errorf("wal: recover %s: damaged record inside a non-final segment: %w", filepath.Base(path), err)
				}
				res.TruncatedBytes = int64(len(data)) - off
				break
			}
			if err != nil {
				return nil, nil, fmt.Errorf("wal: recover %s: %w", filepath.Base(path), err)
			}
			if rec.Kind != KindEpoch {
				return nil, nil, fmt.Errorf("wal: recover %s: %w: record kind %d at offset %d",
					filepath.Base(path), ErrUnsupportedVersion, rec.Kind, rec.Offset)
			}
			if rec.Seq > l.last {
				if rec.Seq != l.last+1 {
					return nil, nil, fmt.Errorf("wal: recover %s: sequence gap: record %d after %d", filepath.Base(path), rec.Seq, l.last)
				}
				events, err := maintain.UnmarshalEvents(rec.Payload)
				if err != nil {
					return nil, nil, fmt.Errorf("wal: recover %s: record %d: %w", filepath.Base(path), rec.Seq, err)
				}
				st.ApplyBatch(events, frac)
				l.last = rec.Seq
				res.Replayed++
				res.Seq = rec.Seq
			} // else: the snapshot (or an earlier segment) already covers it
			records++
			valid, off = next, next
		}
		res.Segments++
		if final {
			lastValid, lastRecords = valid, records
		}
	}

	if len(segs) > 0 {
		if err := l.openSegment(gen(segs[len(segs)-1])); err != nil {
			return nil, nil, err
		}
		l.segRecords = lastRecords
		if lastValid < l.segBytes {
			if err := l.f.Truncate(lastValid); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			if _, err := l.f.Seek(lastValid, io.SeekStart); err != nil {
				return nil, nil, err
			}
			l.segBytes = lastValid
		}
	} else {
		// The crash fell between the snapshot rename and the new segment's
		// creation: start a fresh segment at the snapshot.
		if err := l.openSegment(snap.seq); err != nil {
			return nil, nil, err
		}
		if err := fsys.SyncDir(dir); err != nil {
			return nil, nil, err
		}
	}
	l.retainLocked()
	return l, res, nil
}

// openSegmentFile opens (creating if needed) the segment for base,
// positioned at its end, without touching the log's fields.
func (l *Log) openSegmentFile(base uint64) (File, int64, error) {
	f, err := l.fs.OpenFile(filepath.Join(l.dir, segName(base)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: segment: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

// openSegment opens the segment for base as the active one.
func (l *Log) openSegment(base uint64) error {
	f, size, err := l.openSegmentFile(base)
	if err != nil {
		return err
	}
	l.f, l.base, l.segBytes = f, base, size
	return nil
}

// Append logs one epoch batch. seq must be exactly one past the last
// appended sequence — the log enforces the gap-free numbering recovery
// relies on. The record is fsynced, hence durable, when Append returns.
// A non-nil error means the record is NOT acknowledged: it will not
// survive in the log, and the same seq must be retried (or the epoch
// rejected). Append never acknowledges what the disk did not confirm.
func (l *Log) Append(seq uint64, events []maintain.Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: append on closed log")
	}
	if seq != l.last+1 {
		return fmt.Errorf("wal: append seq %d, want %d", seq, l.last+1)
	}
	payload, err := maintain.MarshalEvents(events)
	if err != nil {
		return fmt.Errorf("wal: encoding epoch %d: %w", seq, err)
	}
	if l.needRotateLocked() {
		// The segment limit is soft: if rotation fails (it will be
		// retried on the next append) the record lands in the old
		// segment. Failing the append would reject an epoch the log can
		// still make durable; if the disk is truly broken, the write or
		// sync below reports the real error.
		_ = l.rotateLocked()
	}
	if l.tornTail {
		// A previous failed write/sync left suspect bytes past the last
		// acknowledged record; drop them before writing, or recovery
		// could truncate at the garbage instead of this record.
		if err := l.healTailLocked(); err != nil {
			return fmt.Errorf("wal: appending epoch %d: %w", seq, err)
		}
	}
	rec := appendRecord(nil, KindEpoch, seq, payload)
	if _, err := l.f.Write(rec); err != nil {
		l.tornTail = true
		return fmt.Errorf("wal: appending epoch %d: %w", seq, err)
	}
	l.last = seq
	l.segBytes += int64(len(rec))
	l.segRecords++
	if err := l.syncLocked(); err != nil {
		// Written but never made durable: roll the record back so it is
		// not acknowledged, and mark its bytes suspect (a failed fsync may
		// have dropped any of them).
		l.last = seq - 1
		l.segBytes -= int64(len(rec))
		l.segRecords--
		l.tornTail = true
		return fmt.Errorf("wal: appending epoch %d: %w", seq, err)
	}
	return nil
}

// needRotateLocked reports whether the active segment crossed a rotation
// threshold.
func (l *Log) needRotateLocked() bool {
	if l.segRecords == 0 || l.last == l.base {
		return false
	}
	if l.cfg.SegmentBytes > 0 && l.segBytes >= l.cfg.SegmentBytes {
		return true
	}
	if l.cfg.SegmentEpochs > 0 && l.segRecords >= l.cfg.SegmentEpochs {
		return true
	}
	return false
}

// rotateLocked closes the active segment and opens a fresh one at the
// last appended seq. On error the old segment stays active — rotation is
// always retryable and never loses acknowledged records.
func (l *Log) rotateLocked() error {
	if l.tornTail {
		if err := l.healTailLocked(); err != nil {
			return err
		}
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	f, size, err := l.openSegmentFile(l.last)
	if err != nil {
		return err
	}
	// The new segment's directory entry must be durable before any record
	// in it is acknowledged.
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f.Close()
	l.f, l.base = f, l.last
	l.retained += l.segBytes
	l.segBytes, l.segRecords = size, 0
	l.segCount++
	return nil
}

// healTailLocked truncates suspect bytes past the last acknowledged
// record and repositions the writer. Caller holds mu.
func (l *Log) healTailLocked() error {
	if err := l.f.Truncate(l.segBytes); err != nil {
		return fmt.Errorf("wal: truncating suspect tail: %w", err)
	}
	if _, err := l.f.Seek(l.segBytes, io.SeekStart); err != nil {
		return err
	}
	l.tornTail = false
	return nil
}

// Heal probes the storage path after append errors: it drops any suspect
// tail bytes, forces an fsync of the active segment, and fsyncs the
// directory. A nil return means the log is consistent and writable again
// — the service's Resync uses it as the recovery probe.
func (l *Log) Heal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: heal on closed log")
	}
	if l.tornTail {
		if err := l.healTailLocked(); err != nil {
			return err
		}
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	return l.fs.SyncDir(l.dir)
}

// MaybeCompact checkpoints the state and rotates the segment when the
// snapshot interval has elapsed. seq must be the state's current epoch
// (the last appended one). It reports whether a compaction ran.
func (l *Log) MaybeCompact(st *maintain.State, seq uint64) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cfg.SnapshotEvery < 0 || seq < l.snapSeq+uint64(l.cfg.SnapshotEvery) {
		return false, nil
	}
	return true, l.compactLocked(st, seq)
}

// ForceCompact checkpoints st at seq (the last acknowledged epoch) right
// now, regardless of the snapshot interval, and prunes covered segments.
// The service calls it to free disk space before retrying a failed
// append.
func (l *Log) ForceCompact(st *maintain.State, seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactLocked(st, seq)
}

// compactLocked writes snap-<seq>, opens wal-<seq>, and applies the
// retention rule. Caller holds mu and guarantees seq == l.last.
func (l *Log) compactLocked(st *maintain.State, seq uint64) error {
	if l.f == nil {
		return errors.New("wal: compact on closed log")
	}
	if seq != l.last {
		return fmt.Errorf("wal: compact at seq %d, log is at %d", seq, l.last)
	}
	if l.tornTail {
		if err := l.healTailLocked(); err != nil {
			return err
		}
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.writeSnapshotFile(st, seq); err != nil {
		return err
	}
	l.snapSeq = seq
	f, size, err := l.openSegmentFile(seq)
	if err != nil {
		// The snapshot is durable but the rotation failed: keep appending
		// to the old segment. Recovery skips records a snapshot covers at
		// the record level, so a segment spanning the snapshot is safe.
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f.Close()
	l.f, l.base = f, seq
	l.segBytes, l.segRecords = size, 0
	l.retainLocked()
	return nil
}

// writeSnapshotFile durably writes snap-<seq> (temp file, fsync, rename,
// directory fsync), embedding the log's fallback fraction in the header.
func (l *Log) writeSnapshotFile(st *maintain.State, seq uint64) error {
	alive, status := st.Roles()
	data := encodeSnapshot(snapshotState{
		seq: seq, radius: st.Radius(), frac: l.frac,
		pts: st.Positions(), alive: alive, status: status,
	})
	tmp := filepath.Join(l.dir, snapName(seq)+".tmp")
	fail := func(err error) error {
		l.fs.Remove(tmp) // reclaim the space; a leftover tmp is never read
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	f, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := l.fs.Rename(tmp, filepath.Join(l.dir, snapName(seq))); err != nil {
		return fail(err)
	}
	// The rename is not durable until the directory is: a swallowed error
	// here would report a checkpoint that can vanish in a crash.
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	return nil
}

// retainLocked enforces bounded retention and recomputes the on-disk
// footprint. It deletes leftover temp files, snapshots older than the
// newest one, and closed segments wholly covered by it (Covered).
// Deletion is best effort — a leftover file is wasted space, not
// corruption, and recovery skips covered records anyway.
func (l *Log) retainLocked() {
	if tmps, _ := l.fs.Glob(filepath.Join(l.dir, "snap-*.snap.tmp")); len(tmps) > 0 {
		for _, m := range tmps {
			l.fs.Remove(m)
		}
	}
	snaps, segs := listFS(l.fs, l.dir)
	for _, m := range snaps {
		if gen(m) != l.snapSeq {
			l.fs.Remove(m)
		}
	}
	for i, m := range segs {
		if gen(m) == l.base {
			continue // never the active segment
		}
		if Covered(segs, i, l.snapSeq) {
			l.fs.Remove(m)
		}
	}
	l.fs.SyncDir(l.dir)

	// Recompute the footprint from what survived.
	var total int64
	snaps, segs = listFS(l.fs, l.dir)
	for _, m := range snaps {
		if n, err := l.fs.Size(m); err == nil {
			total += n
		}
	}
	for _, m := range segs {
		if gen(m) == l.base {
			continue // the active segment is metered live via segBytes
		}
		if n, err := l.fs.Size(m); err == nil {
			total += n
		}
	}
	l.retained, l.segCount = total, len(segs)
}

func (l *Log) syncLocked() error {
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.lastSync = time.Now()
	return nil
}

// Close syncs and closes the log. The log cannot be appended to after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// FallbackFrac returns the ApplyBatch fallback fraction the log records
// in snapshot headers (the one the server runs with).
func (l *Log) FallbackFrac() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frac
}

// Stats summarizes the log. Safe from any goroutine.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs := l.segCount
	if segs == 0 {
		segs = 1
	}
	return Stats{
		SegmentBytes:   l.segBytes,
		SegmentRecords: l.segRecords,
		Segments:       segs,
		RetainedBytes:  l.retained + l.segBytes,
		LastSeq:        l.last,
		SnapshotSeq:    l.snapSeq,
		SnapshotAge:    int64(l.last - l.snapSeq),
		LastSync:       l.lastSync,
	}
}

// WriteSnapshot serializes a checkpoint of st at seq to w — the backup
// half of the backup/restore round trip. fallbackFrac is recorded in the
// header (NaN records the default).
func WriteSnapshot(w io.Writer, st *maintain.State, seq uint64, fallbackFrac float64) error {
	if math.IsNaN(fallbackFrac) {
		fallbackFrac = maintain.DefaultFallbackFraction
	}
	alive, status := st.Roles()
	data := encodeSnapshot(snapshotState{
		seq: seq, radius: st.Radius(), frac: fallbackFrac,
		pts: st.Positions(), alive: alive, status: status,
	})
	_, err := w.Write(data)
	return err
}

// ReadSnapshot parses a WriteSnapshot stream back into a maintained
// state, its epoch, and the fallback fraction recorded in the header
// (maintain.DefaultFallbackFraction for v1 headers, which never recorded
// one). The restored state is bit-identical to the serialized one
// (positions are raw IEEE-754 bits) and is validated against the
// clustering invariants before being returned.
func ReadSnapshot(r io.Reader) (*maintain.State, uint64, float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, 0, 0, err
	}
	frac := snap.frac
	if math.IsNaN(frac) {
		frac = maintain.DefaultFallbackFraction
	}
	st, err := maintain.FromRoles(snap.pts, snap.radius, snap.alive, snap.status)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: snapshot %d: %w", snap.seq, err)
	}
	return st, snap.seq, frac, nil
}

// ScanResult summarizes one segment scan (tools/walcat's view of a log).
type ScanResult struct {
	// Records are the valid records in order.
	Records []RecordInfo
	// ValidBytes is the offset past the last valid record.
	ValidBytes int64
	// TornBytes counts trailing bytes that do not decode (torn or
	// corrupt tail).
	TornBytes int64
	// TailErr describes why scanning stopped early, if it did.
	TailErr error
}

// ScanSegment decodes every record of a segment file without applying
// anything. Unlike Recover it never modifies the file.
func ScanSegment(path string) (*ScanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &ScanResult{}
	for off := int64(0); off < int64(len(data)); {
		rec, next, err := decodeRecord(data, off)
		if err != nil {
			res.TornBytes = int64(len(data)) - off
			res.TailErr = err
			break
		}
		res.Records = append(res.Records, rec)
		res.ValidBytes, off = next, next
	}
	return res, nil
}

// SnapshotInfo is the header summary of a snapshot file.
type SnapshotInfo struct {
	Seq    uint64
	Nodes  int
	Alive  int
	Radius float64
	// FallbackFrac is the recorded ApplyBatch fallback fraction (NaN in
	// v1 headers, which predate the field).
	FallbackFrac float64
}

// ReadSnapshotInfo validates a snapshot file and summarizes it.
func ReadSnapshotInfo(path string) (SnapshotInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SnapshotInfo{}, err
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return SnapshotInfo{}, err
	}
	info := SnapshotInfo{Seq: snap.seq, Nodes: len(snap.pts), Radius: snap.radius, FallbackFrac: snap.frac}
	for _, a := range snap.alive {
		if a {
			info.Alive++
		}
	}
	return info, nil
}
