package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geospanner/internal/cluster"
	"geospanner/internal/health"
	"geospanner/internal/maintain"
	"geospanner/internal/obs"
	"geospanner/internal/udg"
)

func newServer(t *testing.T, seed int64, n int, opts ...Option) (*Server, *udg.Instance) {
	t.Helper()
	inst, err := udg.ConnectedInstance(seed, n, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(inst.Points, inst.Radius, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, inst
}

// validatePath checks that a route answer is a real walk of the epoch's
// pinned UDG snapshot between the queried endpoints.
func validatePath(t *testing.T, ep *Epoch, src, dst int, path []int) {
	t.Helper()
	if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
		t.Fatalf("epoch %d: path %v does not connect %d->%d", ep.Seq, path, src, dst)
	}
	for i := 1; i < len(path); i++ {
		if !ep.UDG.HasEdge(path[i-1], path[i]) {
			t.Fatalf("epoch %d: path step %d-%d is not a live UDG edge", ep.Seq, path[i-1], path[i])
		}
	}
	for _, v := range path {
		if !ep.Alive(v) {
			t.Fatalf("epoch %d: path visits dead node %d", ep.Seq, v)
		}
	}
}

func TestServerLifecycle(t *testing.T) {
	s, inst := newServer(t, 41, 120)
	ep0 := s.Current()
	if ep0.Seq != 0 || ep0.UDG.Epoch() != 0 || ep0.Backbone.Epoch() != 0 {
		t.Fatalf("initial epoch tags: seq=%d udg=%d backbone=%d", ep0.Seq, ep0.UDG.Epoch(), ep0.Backbone.Epoch())
	}
	if !ep0.Report.Healthy() {
		t.Fatalf("fresh connected instance reports unhealthy:\n%s", ep0.Report)
	}
	if mode := ep0.Report.Mode; mode != health.ModeLive {
		t.Fatalf("report mode %q, want %q", mode, health.ModeLive)
	}
	topo := ep0.Topology()
	if topo.Alive != 120 || topo.Components != 1 || topo.Dominators == 0 {
		t.Fatalf("epoch 0 topology: %+v", topo)
	}

	sched := NewScheduler(42, inst.Points, 200, inst.Radius)
	rng := rand.New(rand.NewSource(43))
	for i := 1; i <= 12; i++ {
		ep, err := s.Apply(sched.Batch(15))
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		if ep.Seq != uint64(i) {
			t.Fatalf("epoch seq %d, want %d", ep.Seq, i)
		}
		if ep.UDG.Epoch() != ep.Seq || ep.Backbone.Epoch() != ep.Seq {
			t.Fatalf("epoch %d: snapshot tags %d/%d", ep.Seq, ep.UDG.Epoch(), ep.Backbone.Epoch())
		}
		if ep.Stats.Batch.Events != 15 {
			t.Fatalf("epoch %d: batch stats %+v", ep.Seq, ep.Stats.Batch)
		}
		// Route a few random alive pairs and validate against the pinned
		// snapshot. Routing may legitimately fail across partitions; a
		// returned path must be a live walk.
		for q := 0; q < 5; q++ {
			src, dst := pickAlivePair(rng, ep)
			if src < 0 {
				break
			}
			path, err := ep.Route(src, dst)
			if err != nil {
				continue
			}
			validatePath(t, ep, src, dst, path)
		}
	}
	st := s.Stats()
	if st.Epochs != 12 || st.Epoch != 12 || st.Events != 12*15 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Applied+st.Rejected != st.Events {
		t.Fatalf("stats applied+rejected != events: %+v", st)
	}
}

func pickAlivePair(rng *rand.Rand, ep *Epoch) (src, dst int) {
	topo := ep.Topology()
	if topo.Alive < 2 {
		return -1, -1
	}
	pick := func() int {
		for {
			if v := rng.Intn(topo.Nodes); ep.Alive(v) {
				return v
			}
		}
	}
	src = pick()
	for {
		if dst = pick(); dst != src {
			return src, dst
		}
	}
}

// TestRouteRejectsDeadEndpoints pins the ErrNodeDown contract.
func TestRouteRejectsDeadEndpoints(t *testing.T) {
	s, _ := newServer(t, 44, 60)
	if _, err := s.Apply([]maintain.Event{maintain.NewCrash(7)}); err != nil {
		t.Fatal(err)
	}
	ep := s.Current()
	if ep.Alive(7) {
		t.Fatal("node 7 still alive")
	}
	if _, err := ep.Route(7, 3); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("route from dead source: %v", err)
	}
	if _, err := ep.Route(3, 7); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("route to dead destination: %v", err)
	}
	if _, err := ep.Route(-1, 3); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// TestEpochZeroAndNoOpsNotCountedAsRecomputes ties the recompute-counter
// dedupe to the service metric: the initial derivation is construction,
// not maintenance, and an epoch of rejected stream noise must report
// "patched" with the recompute counters flat.
func TestEpochZeroAndNoOpsNotCountedAsRecomputes(t *testing.T) {
	metrics := obs.NewMetrics()
	s, _ := newServer(t, 45, 60, WithTracer(metrics))
	if st := s.Stats(); st.Recomputes != 0 || st.Epochs != 0 {
		t.Fatalf("construction counted as maintenance: %+v", st)
	}

	// Crash a node, then replay the same crash: the second epoch is pure
	// noise and must not recompute.
	if _, err := s.Apply([]maintain.Event{maintain.NewCrash(3)}); err != nil {
		t.Fatal(err)
	}
	ep, err := s.Apply([]maintain.Event{
		maintain.NewCrash(3),
		maintain.NewLeave(3),
		maintain.NewCrash(10_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ep.Stats.Mode() != "patched" || ep.Stats.Recomputed {
		t.Fatalf("noise epoch recomputed: mode=%q %+v", ep.Stats.Mode(), ep.Stats)
	}
	if ep.Stats.Batch.Rejected != 3 || ep.Stats.Batch.Applied != 0 {
		t.Fatalf("noise epoch stats: %+v", ep.Stats.Batch)
	}
	sm := metrics.Stage(Stage)
	if sm.Epochs != 2 || sm.Snapshots != 2 || sm.EpochRejected != 3 {
		t.Fatalf("metrics rollup: epochs=%d snapshots=%d rejected=%d", sm.Epochs, sm.Snapshots, sm.EpochRejected)
	}
	if got := metrics.String(); !strings.Contains(got, "recompute_ratio") {
		t.Fatalf("metrics report lacks epoch line:\n%s", got)
	}
}

// TestFallbackEpochRestoresCentralizedRoles drives a huge batch through a
// tiny fallback fraction and checks the epoch reports the fallback.
func TestFallbackEpochRestoresCentralizedRoles(t *testing.T) {
	s, inst := newServer(t, 46, 80, WithFallbackFraction(1e-9))
	sched := NewScheduler(47, inst.Points, 200, inst.Radius)
	ep, err := s.Apply(sched.Batch(40))
	if err != nil {
		t.Fatal(err)
	}
	if !ep.Stats.Batch.Fallback || ep.Stats.Mode() != "fallback" {
		t.Fatalf("expected fallback epoch: %+v", ep.Stats)
	}
	want := cluster.Centralized(s.State().AliveGraph())
	for v := 0; v < s.State().N(); v++ {
		if s.State().Alive(v) && s.State().Status(v) != want.Status[v] {
			t.Fatalf("node %d not on centralized roles after fallback", v)
		}
	}
}

// TestSchedulerDeterminism: the same seed yields the same schedule.
func TestSchedulerDeterminism(t *testing.T) {
	_, inst := newServer(t, 48, 50)
	a := NewScheduler(7, inst.Points, 200, inst.Radius)
	b := NewScheduler(7, inst.Points, 200, inst.Radius)
	for i := 0; i < 10; i++ {
		ea, eb := a.Batch(20), b.Batch(20)
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("batch %d event %d: %+v != %+v", i, j, ea[j], eb[j])
			}
		}
	}
}

func TestHTTPAPI(t *testing.T) {
	s, inst := newServer(t, 49, 60)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	getJSON := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode
	}

	var hr HealthResponse
	if code := getJSON("/healthz", &hr); code != http.StatusOK || !hr.Healthy || hr.Mode != "live" {
		t.Fatalf("healthz: code=%d %+v", code, hr)
	}
	var topo Topology
	if code := getJSON("/v1/topology", &topo); code != http.StatusOK || topo.Alive != 60 {
		t.Fatalf("topology: code=%d %+v", code, topo)
	}

	// Drive one epoch over the wire.
	sched := NewScheduler(50, inst.Points, 200, inst.Radius)
	body, err := json.Marshal(EpochRequest{Events: maintain.EncodeWire(sched.Batch(10))})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/epoch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er EpochResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || er.Epoch != 1 || er.Events != 10 {
		t.Fatalf("epoch POST: code=%d %+v", resp.StatusCode, er)
	}

	// Route between two alive nodes of the current epoch.
	rng := rand.New(rand.NewSource(51))
	src, dst := pickAlivePair(rng, s.Current())
	var rr RouteResponse
	code := getJSON(fmt.Sprintf("/v1/route?src=%d&dst=%d", src, dst), &rr)
	if code == http.StatusOK {
		validatePath(t, s.Current(), src, dst, rr.Path)
		if rr.Hops != len(rr.Path)-1 || rr.Epoch != 1 {
			t.Fatalf("route response: %+v", rr)
		}
	} else if code != http.StatusUnprocessableEntity {
		t.Fatalf("route: unexpected code %d (%+v)", code, rr)
	}

	// Malformed requests answer with the uniform error envelope.
	var ee ErrorResponse
	if code := getJSON("/v1/route?src=x&dst=0", &ee); code != http.StatusBadRequest ||
		ee.Code != http.StatusBadRequest || ee.Error == "" {
		t.Fatalf("bad route args: code=%d %+v", code, ee)
	}
	resp, err = http.Post(ts.URL+"/v1/epoch", "application/json",
		strings.NewReader(`{"events":[{"kind":"move","node":0},{"kind":"explode","node":1},{"kind":"crash","node":-4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	ee = ErrorResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&ee); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || ee.Code != http.StatusBadRequest {
		t.Fatalf("invalid batch: code=%d %+v", resp.StatusCode, ee)
	}
	// The envelope names every invalid record, not just the first.
	if len(ee.Events) != 2 || ee.Events[0].Index != 1 || ee.Events[1].Index != 2 {
		t.Fatalf("invalid batch details: %+v", ee.Events)
	}

	var st Stats
	if code := getJSON("/v1/stats", &st); code != http.StatusOK || st.Epochs != 1 {
		t.Fatalf("stats: code=%d %+v", code, st)
	}
}

// TestEpochBodyTooLarge: a POST /v1/epoch body over the cap is refused
// with 413 in the error envelope, and no epoch is published — even when
// the oversized body is a valid (empty) batch padded with whitespace.
func TestEpochBodyTooLarge(t *testing.T) {
	s, _ := newServer(t, 52, 40)
	before := s.Current().Seq
	body := io.MultiReader(strings.NewReader(`{"events":[`),
		bytes.NewReader(bytes.Repeat([]byte(" "), maxEpochBody)), strings.NewReader(`]}`))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/epoch", body))
	if got := s.Current().Seq; got != before {
		t.Fatalf("oversized body published epoch %d (was %d)", got, before)
	}
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: code=%d, want 413: %s", rec.Code, rec.Body)
	}
	var ee ErrorResponse
	if err := json.NewDecoder(rec.Body).Decode(&ee); err != nil || ee.Code != http.StatusRequestEntityTooLarge || ee.Error == "" {
		t.Fatalf("oversized body: envelope %+v (decode error %v)", ee, err)
	}
}
