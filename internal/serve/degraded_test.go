package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geospanner/internal/maintain"
	"geospanner/internal/wal"
)

// TestDegradedEnterAndExit walks the whole storage-failure state machine:
// a persistently failing disk rejects the epoch without swapping the
// snapshot, flips the server read-only (surfaced through Degraded, Health,
// /healthz, /v1/epoch and /v1/stats), and a Resync after the disk heals
// returns it to writable.
func TestDegradedEnterAndExit(t *testing.T) {
	mfs := wal.NewMemFS()
	s, inst := newServer(t, 63, 40, WithWALConfig("/log", wal.Config{FS: mfs}), WithWALRetry(1, 0))
	sched := NewScheduler(64, inst.Points, 200, inst.Radius)
	if _, err := s.Apply(sched.Batch(8)); err != nil {
		t.Fatal(err)
	}
	want := s.Current().Fingerprint()

	// Every fsync now fails: the bounded retry budget must exhaust.
	mfs.SetFaults(wal.FaultConfig{Seed: 1, SyncFailProb: 1})
	failed := sched.Batch(8)
	if _, err := s.Apply(failed); !errors.Is(err, ErrDegraded) {
		t.Fatalf("apply on a dead disk: %v, want ErrDegraded", err)
	}
	if s.Current().Seq != 1 || s.Current().Fingerprint() != want {
		t.Fatal("a failed append swapped the published epoch")
	}
	if deg, reason := s.Degraded(); !deg || reason == "" {
		t.Fatalf("Degraded() = %v, %q after budget exhaustion", deg, reason)
	}
	if report, _ := s.Health(); !report.Degraded || report.Healthy() {
		t.Fatalf("health report not degraded: %+v", report)
	} else if !strings.Contains(report.String(), "DEGRADED") {
		t.Fatalf("health summary hides degradation: %s", report)
	}
	st := s.Stats()
	if !st.WALDegraded || st.WALDegradedReason == "" || st.WALDegradedEntries != 1 || st.WALErrors == 0 {
		t.Fatalf("stats after degrading: %+v", st)
	}

	// Degraded mode fails fast: no further disk traffic per rejected epoch.
	opsBefore := mfs.Ops()
	if _, err := s.Apply(failed); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second apply: %v, want ErrDegraded", err)
	}
	if mfs.Ops() != opsBefore {
		t.Fatal("degraded server still hammers the disk")
	}

	// HTTP surfacing: reads keep working, writes 503, health says degraded.
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var hr HealthResponse
	if err := json.NewDecoder(rec.Body).Decode(&hr); err != nil || !hr.Degraded || hr.DegradedReason == "" {
		t.Fatalf("healthz while degraded: err=%v %+v", err, hr)
	}
	body, _ := json.Marshal(EpochRequest{Events: maintain.EncodeWire(failed)})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/epoch", strings.NewReader(string(body))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/epoch while degraded: %d, want 503", rec.Code)
	}

	// Resync against a still-broken disk must refuse to exit.
	if err := s.Resync(); err == nil {
		t.Fatal("resync succeeded while the disk still fails")
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("failed resync cleared degraded mode")
	}

	// The disk heals; resync exits degraded mode and writes resume.
	mfs.SetFaults(wal.FaultConfig{})
	if err := s.Resync(); err != nil {
		t.Fatalf("resync on a healed disk: %v", err)
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("still degraded after a clean resync")
	}
	ep, err := s.Apply(failed)
	if err != nil || ep.Seq != 2 {
		t.Fatalf("apply after resync: seq=%v err=%v", ep, err)
	}
	st = s.Stats()
	if st.WALDegraded || st.WALDegradedEntries != 1 || st.WALDegradedExits != 1 {
		t.Fatalf("stats after recovery: %+v", st)
	}

	// Nothing acknowledged was lost: the MemFS recovers bit-identically.
	mfs.Crash()
	recd, info, err := Recover("/log", WithWALConfig("/log", wal.Config{FS: mfs}))
	if err != nil {
		t.Fatal(err)
	}
	defer recd.Close()
	if info.Seq != 2 || recd.Current().Fingerprint() != ep.Fingerprint() {
		t.Fatalf("recovery after the degraded episode: seq=%d", info.Seq)
	}
}

// TestENOSPCRetriesWithoutDegrading: a full disk is the transient failure
// the retry path exists for — the forced compaction frees covered
// segments, the retried append succeeds, and the epoch is acknowledged
// with no degraded episode.
func TestENOSPCRetriesWithoutDegrading(t *testing.T) {
	mfs := wal.NewMemFS()
	cfg := wal.Config{SnapshotEvery: -1, SegmentEpochs: 2, FS: mfs}
	s, inst := newServer(t, 65, 40, WithWALConfig("/log", cfg), WithWALRetry(2, 0))
	sched := NewScheduler(66, inst.Points, 200, inst.Radius)
	for i := 0; i < 3; i++ {
		if _, err := s.Apply(sched.Batch(50)); err != nil {
			t.Fatal(err)
		}
	}

	// Headroom bigger than a snapshot, smaller than the next record: the
	// append fails with ENOSPC, and the retry's compaction must fit.
	mfs.SetCapacity(mfs.TotalBytes() + 900)
	ep, err := s.Apply(sched.Batch(50))
	if err != nil {
		t.Fatalf("apply on a nearly full disk: %v", err)
	}
	if ep.Seq != 4 {
		t.Fatalf("epoch %d, want 4", ep.Seq)
	}
	st := s.Stats()
	if st.WALErrors == 0 {
		t.Fatal("the apply never hit ENOSPC; the capacity did not bite")
	}
	if deg, _ := s.Degraded(); deg || st.WALDegradedEntries != 0 {
		t.Fatal("a transient ENOSPC degraded the server")
	}

	// The freed disk keeps serving, and everything acknowledged recovers.
	if _, err := s.Apply(sched.Batch(10)); err != nil {
		t.Fatal(err)
	}
	want := s.Current().Fingerprint()
	mfs.Crash()
	rec, info, err := Recover("/log", WithWALConfig("/log", cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if info.Seq != 5 || rec.Current().Fingerprint() != want {
		t.Fatalf("recovery after ENOSPC episode: seq=%d", info.Seq)
	}
}

// TestStatsReportSegmentsAndRetention: the new rotation counters reach
// /v1/stats.
func TestStatsReportSegmentsAndRetention(t *testing.T) {
	mfs := wal.NewMemFS()
	cfg := wal.Config{SnapshotEvery: -1, SegmentEpochs: 2, FS: mfs}
	s, inst := newServer(t, 67, 40, WithWALConfig("/log", cfg))
	defer s.Close()
	sched := NewScheduler(68, inst.Points, 200, inst.Radius)
	for i := 0; i < 5; i++ {
		if _, err := s.Apply(sched.Batch(6)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.WALSegments < 2 || st.WALRetainedBytes <= 0 {
		t.Fatalf("segment stats not surfaced: %+v", st)
	}
}
