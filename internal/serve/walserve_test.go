package serve

import (
	"bytes"
	"errors"
	"testing"

	"geospanner/internal/geom"
	"geospanner/internal/maintain"
	"geospanner/internal/udg"
	"geospanner/internal/wal"
)

// driveLockstep applies the same batches to both servers and asserts their
// published epochs stay bit-identical (equal fingerprints).
func driveLockstep(t *testing.T, a, b *Server, sched *Scheduler, epochs, batch int) [][]maintain.Event {
	t.Helper()
	batches := make([][]maintain.Event, 0, epochs)
	for i := 0; i < epochs; i++ {
		events := sched.Batch(batch)
		batches = append(batches, events)
		epA, err := a.Apply(events)
		if err != nil {
			t.Fatal(err)
		}
		epB, err := b.Apply(events)
		if err != nil {
			t.Fatal(err)
		}
		if epA.Fingerprint() != epB.Fingerprint() {
			t.Fatalf("epoch %d: fingerprints diverged", epA.Seq)
		}
	}
	return batches
}

// TestServerWALCrashRestart is the end-to-end durability contract: a
// durable server abandoned without Close (the file state a SIGKILL leaves)
// recovers to an epoch bit-identical to its last published one, and keeps
// serving and logging from there in lockstep with an uncrashed reference.
func TestServerWALCrashRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := wal.Config{SnapshotEvery: 3}
	s, inst := newServer(t, 52, 60, WithWALConfig(dir, cfg))
	ref, _ := newServer(t, 52, 60)
	if !s.Durable() || ref.Durable() {
		t.Fatalf("durability flags: s=%v ref=%v", s.Durable(), ref.Durable())
	}

	sched := NewScheduler(53, inst.Points, 200, inst.Radius)
	driveLockstep(t, s, ref, sched, 8, 12)
	want := s.Current().Fingerprint()

	// Crash: abandon s without Close and recover from the directory alone.
	rec, info, err := Recover(dir, WithWALConfig(dir, cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if info.Seq != 8 || info.TruncatedBytes != 0 {
		t.Fatalf("recover info: %+v", info)
	}
	if info.SnapshotSeq == 0 || info.Replayed != 8-int(info.SnapshotSeq) {
		t.Fatalf("recover did not resume from a compacted checkpoint: %+v", info)
	}
	got := rec.Current().Fingerprint()
	if got != want {
		t.Fatalf("recovered epoch fingerprint %x, want %x", got, want)
	}

	// The recovered server is a full replacement: it applies and logs the
	// next epochs exactly as the uncrashed reference does.
	driveLockstep(t, rec, ref, sched, 4, 12)
	if seq := rec.Current().Seq; seq != 12 {
		t.Fatalf("recovered server at epoch %d, want 12", seq)
	}
}

// TestRecoverUsesConfiguredFallbackFraction: the fallback fraction is part
// of replay semantics, so Recover must honor the option.
func TestRecoverUsesConfiguredFallbackFraction(t *testing.T) {
	dir := t.TempDir()
	s, inst := newServer(t, 54, 50, WithWAL(dir), WithFallbackFraction(1e-9))
	sched := NewScheduler(55, inst.Points, 200, inst.Radius)
	ep, err := s.Apply(sched.Batch(30))
	if err != nil {
		t.Fatal(err)
	}
	if !ep.Stats.Batch.Fallback {
		t.Fatal("batch did not trigger the fallback")
	}
	rec, _, err := Recover(dir, WithFallbackFraction(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Current().Fingerprint() != ep.Fingerprint() {
		t.Fatal("replay with the configured fraction diverged")
	}
}

// TestNewRefusesExistingWALDir: New never silently shadows a log.
func TestNewRefusesExistingWALDir(t *testing.T) {
	dir := t.TempDir()
	s, inst := newServer(t, 56, 40, WithWAL(dir))
	defer s.Close()
	if _, err := New(inst.Points, inst.Radius, WithWAL(dir)); !errors.Is(err, wal.ErrExists) {
		t.Fatalf("New over an existing log: %v", err)
	}
}

// TestSnapshotRestoreRoundTrip: a backup stream restores to a server whose
// published epoch is bit-identical, and can resume durably in a fresh
// directory.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s, inst := newServer(t, 57, 50)
	sched := NewScheduler(58, inst.Points, 200, inst.Radius)
	for i := 0; i < 4; i++ {
		if _, err := s.Apply(sched.Batch(10)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	r, err := Restore(bytes.NewReader(buf.Bytes()), WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	if r.Current().Seq != 4 || r.Current().Fingerprint() != s.Current().Fingerprint() {
		t.Fatalf("restored epoch %d does not match the backup", r.Current().Seq)
	}

	// The restored server resumes at seq 5 and its new log recovers.
	batches := driveLockstep(t, r, s, sched, 2, 10)
	_ = batches
	want := r.Current().Fingerprint()
	rec, info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if info.Seq != 6 || rec.Current().Fingerprint() != want {
		t.Fatalf("recovered restore-log at seq %d (want 6)", info.Seq)
	}
}

// TestCloseStopsApplies: a closed durable server refuses writes but keeps
// serving reads.
func TestCloseStopsApplies(t *testing.T) {
	dir := t.TempDir()
	s, inst := newServer(t, 59, 40, WithWAL(dir))
	sched := NewScheduler(60, inst.Points, 200, inst.Radius)
	if _, err := s.Apply(sched.Batch(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(sched.Batch(5)); err == nil {
		t.Fatal("Apply succeeded after Close")
	}
	if s.Current().Seq != 1 {
		t.Fatalf("reads broken after Close: epoch %d", s.Current().Seq)
	}
}

// TestStatsReportWAL: the durability rollup is populated iff a WAL is
// attached.
func TestStatsReportWAL(t *testing.T) {
	dir := t.TempDir()
	s, inst := newServer(t, 61, 40, WithWALConfig(dir, wal.Config{SnapshotEvery: 2}))
	defer s.Close()
	sched := NewScheduler(62, inst.Points, 200, inst.Radius)
	for i := 0; i < 3; i++ {
		if _, err := s.Apply(sched.Batch(6)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if !st.WAL || st.WALLastSeq != 3 || st.WALCheckpointSeq != 2 || st.WALCheckpointAge != 1 {
		t.Fatalf("wal stats: %+v", st)
	}
	if st.WALSegmentBytes == 0 || st.WALRecords != 1 {
		t.Fatalf("wal segment stats: %+v", st)
	}

	plain, _ := newServer(t, 61, 40)
	if st := plain.Stats(); st.WAL || st.WALSegmentBytes != 0 {
		t.Fatalf("non-durable server reports wal stats: %+v", st)
	}
	_ = inst
}

// TestCoLocatingMoveRejected: a move that would put two alive nodes at one
// position is a rejected no-op, so the epoch publishes, later epochs
// apply, and the log that recorded the move recovers to the live
// fingerprint. Two coinciding nodes would make every later planarization
// fail (the local Delaunay triangulation rejects duplicate points).
func TestCoLocatingMoveRejected(t *testing.T) {
	inst, err := udg.ConnectedInstance(7, 200, 400, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := New(inst.Points, inst.Radius, WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := s.Apply([]maintain.Event{maintain.NewMove(5, inst.Points[3])})
	if err != nil {
		t.Fatal(err)
	}
	if ep.Seq != 1 || ep.Stats.Batch.Rejected != 1 || ep.Stats.Batch.ByKind[maintain.EventMove].Rejected != 1 {
		t.Fatalf("co-locating move: epoch %d, batch %+v", ep.Seq, ep.Stats.Batch)
	}
	if got := s.State().Positions()[5]; got != inst.Points[5] {
		t.Fatalf("rejected move relocated node 5 to %v", got)
	}
	sched := NewScheduler(8, inst.Points, 400, inst.Radius)
	if ep, err = s.Apply(sched.Batch(10)); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Current().Seq != 2 || rec.Current().Fingerprint() != ep.Fingerprint() {
		t.Fatalf("recovered epoch %d does not match the live epoch %d", rec.Current().Seq, ep.Seq)
	}
}

// TestNewRefusesCoincidentPoints: a point set with two equal points breaks
// the distinct-positions invariant before any backbone is built.
func TestNewRefusesCoincidentPoints(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 0)}
	if _, err := New(pts, 60); !errors.Is(err, maintain.ErrOccupied) {
		t.Fatalf("New with coincident points: %v", err)
	}
}
