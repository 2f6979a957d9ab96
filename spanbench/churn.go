package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"geospanner"
	"geospanner/internal/graph"
	"geospanner/internal/health"
)

// churnSpec is one workload: a deployment served by a durable topology
// service — one closed-loop writer (Server.Apply with pre-generated
// batches) while one closed-loop reader routes on the pinned epoch — with
// crash-copy recoveries and cold builds of library instances between
// epochs.
type churnSpec struct {
	name     string
	n, batch int
	mix      eventMix
	// epochsPerSecond turns the time budget into a fixed epoch count, so
	// every exact count and fingerprint of a run repeats at one seed. It
	// was calibrated so the epochs take about two thirds of the budget when
	// the benchmark was defined; a faster program finishes the same work
	// sooner.
	epochsPerSecond float64
	coldStarts      int // set-ups per run; setup_s is their median
	recoveries      int // recoveries of the crash copy per run; recover_s is their median
	build           coldSpec
}

var (
	churnSteady = churnSpec{
		name: "churn-steady", n: 2000, batch: 4, mix: mixMove,
		epochsPerSecond: 3.4, coldStarts: 5, recoveries: 9, build: coldBuild,
	}
	churnBurst = churnSpec{
		name: "churn-burst", n: 1000, batch: 20, mix: mixMixed,
		epochsPerSecond: 3.4, coldStarts: 5, recoveries: 9, build: coldBuild,
	}
)

// validateEvery is the reader's validation stride: every k-th route is
// checked hop by hop against the pinned epoch's unit disk graph.
const validateEvery = 16

// quietPairs is the size of the fixed pair list of the quiet routing
// phase of a traced run; p99 needs at least 1000.
const quietPairs = 50000

// churnInputs is everything a run feeds the program.
type churnInputs struct {
	pts        []geospanner.Point
	radius     float64
	batches    [][]geospanner.TopologyEvent
	copyAt     uint64           // epoch after which the log is copied
	recoverAt  map[uint64]bool  // epochs after which a duplicate of the copy is recovered
	buildAt    map[uint64][]int // epochs after which cold-build instances are built
	readerSeed int64
	pairSeed   int64
	// instances are the point sets of the cold builds, built with
	// buildRadius.
	instances   [][]geospanner.Point
	buildRadius float64
}

// deploymentSeed fixes the point set of both churn workloads; the seed
// argument draws the churn stream, the reader's pairs and the cold-build
// instances. The cost of an epoch depends strongly on the point set — at
// n=2000 the median epoch of two point sets differed by 40% under the same
// churn mix — so a run per point set would measure the point sets rather
// than the program.
const deploymentSeed = 1

func genChurn(spec churnSpec, seed int64, epochs, instances int) churnInputs {
	rng := rand.New(rand.NewSource(seed))
	in := churnInputs{
		pts:         genPoints(rand.New(rand.NewSource(deploymentSeed)), spec.n),
		radius:      radiusFor(spec.n),
		batches:     make([][]geospanner.TopologyEvent, epochs),
		recoverAt:   make(map[uint64]bool),
		buildAt:     make(map[uint64][]int),
		instances:   make([][]geospanner.Point, instances),
		buildRadius: radiusFor(spec.build.n),
	}
	g := newChurnGen(rng, in.pts, in.radius, spec.mix)
	for i := range in.batches {
		in.batches[i] = g.batch(spec.batch)
	}
	in.readerSeed, in.pairSeed = rng.Int63(), rng.Int63()
	for i := range in.instances {
		in.instances[i] = genPoints(rng, spec.build.n)
	}
	// One copy of the log is taken early and recovered at evenly spaced
	// epochs, each time from a fresh duplicate: every recovery replays the
	// same records into a state of the same size, so the samples differ
	// only by the host's speed at the time, and they meet that speed over
	// the whole run. (Copies taken along the run would recover states of
	// different sizes — the mixed profile loses a third of its nodes over
	// a run — so their median would rest on one or two of them.)
	for i := 1; i <= spec.recoveries; i++ {
		at := uint64(max(1, i*epochs/(spec.recoveries+1)))
		in.recoverAt[at] = true
		if i == 1 {
			in.copyAt = at
		}
	}
	for i := range in.instances {
		at := uint64(max(1, (i+1)*epochs/(instances+1)))
		in.buildAt[at] = append(in.buildAt[at], i)
	}
	return in
}

// epochsFor is the fixed epoch count of a time budget.
func (spec churnSpec) epochsFor(seconds int) int {
	return int(math.Ceil(float64(seconds) * spec.epochsPerSecond))
}

// runWorkload runs one workload: set-up, then the writer phase with the
// reader, the crash-copy recoveries and the cold builds. Every part runs on
// every workload, so every run reports every end-to-end metric.
func runWorkload(spec churnSpec, cfg config, rep *report) error {
	in := genChurn(spec, cfg.seed, spec.epochsFor(cfg.seconds), spec.build.instancesFor(cfg.seconds))
	rep.logf("workload %s: n=%d radius=%.4f batch=%d epochs=%d build_n=%d instances=%d seed=%d trace=%v",
		spec.name, spec.n, in.radius, spec.batch, len(in.batches), spec.build.n, len(in.instances), cfg.seed, cfg.trace)
	if cfg.trace {
		if err := tracedColdBuild(cfg, rep, in.instances, in.buildRadius); err != nil {
			return err
		}
		// One untraced pass is the reference the traced pass must equal.
		srv, _, _, err := setUp(spec, in, cfg, rep, 1, NewSamples(1), nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		ref, err := churnPass(in, cfg, rep, srv, "", newRouteWindows(), nil, nil)
		if err != nil {
			return err
		}
		return tracedChurn(spec, in, cfg, rep, ref)
	}

	setup := NewSamples(spec.coldStarts)
	srv, walDir, gs, err := setUp(spec, in, cfg, rep, spec.coldStarts, setup, in.instances)
	if err != nil {
		return err
	}
	defer srv.Close()
	win := newRouteWindows()
	b := newBuildRun(len(gs))
	r, err := churnPass(in, cfg, rep, srv, walDir, win, gs, b)
	if err != nil {
		return err
	}

	// The live heap with the server, its epoch and the benchmark's
	// pre-allocated buffers reachable.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	st := srv.State()
	conn, pldel, err := st.Structures()
	if err == nil {
		err = st.VerifyBackbone(conn, pldel)
	}
	rep.check(err == nil, "final state backbone: %v", err)

	rep.metric("setup_s", "s")(Median(setup.Values()))
	rep.metric("epoch_p50_ms", "ms")(Median(r.epochMS))
	rep.metric("epoch_p90_ms", "ms")(Percentile(r.epochMS, 90))
	rep.metric("events_per_s", "events/s")(float64(r.events)/(sum(r.epochMS)/1e3), nil)
	rep.metric("route_p50_us", "us")(micros(Percentile(win.p50.Values(), windowQuantile)))
	rep.metric("route_p99_us", "us")(micros(Percentile(win.p99.Values(), windowQuantile)))
	rep.metric("recover_s", "s")(Median(r.recoverS.Values()))
	rep.metric("build_s", "s")(Median(b.build.Values()))
	rep.metric("build_central_s", "s")(Median(b.central.Values()))
	rep.metric("heap_mb", "MiB")(heapMB, nil)
	rep.logf("samples: %d set-ups, %d builds, %d centralized builds, %d epochs, %d recoveries, %d routes in %d windows (%d validated)",
		setup.Len(), b.build.Len(), b.central.Len(), len(r.epochMS), r.recoverS.Len(), win.queries, win.p50.Len(), r.validated)
	rep.logf("dist setup_s %s", describe(setup.Values()))
	rep.logf("dist build_s %s", describe(b.build.Values()))
	rep.logf("dist central_s %s", describe(b.central.Values()))
	rep.logf("dist epoch_ms %s", describe(r.epochMS))
	rep.logf("dist recover_s %s", describe(r.recoverS.Values()))
	rep.logf("dist route_p50_ns windows %s", describe(win.p50.Values()))
	rep.logf("dist route_p99_ns windows %s", describe(win.p99.Values()))

	rep.detf("instances=%d rounds=%d messages=%d output_digest=%016x", b.build.Len(), b.rounds, b.messages, digestWords(b.digests))
	stats := srv.Stats()
	rep.detf("epochs=%d events=%d applied=%d rejected=%d role_changes=%d",
		stats.Epochs, stats.Events, stats.Applied, stats.Rejected, stats.RoleChanges)
	rep.detf("patched_epochs=%d patch_fallbacks=%d recomputes=%d role_fallbacks=%d",
		stats.PatchedEpochs, stats.PatchFallbacks, stats.Recomputes, stats.Fallbacks)
	rep.detf("fingerprint_setup=%016x fingerprint_final=%016x epoch_digest=%016x",
		r.fp0, r.fps[len(r.fps)-1], digestWords(r.fps))
	rep.detf("recovered_copies=%d replayed_records=%d", r.recoverS.Len(), r.replayed)
	return nil
}

// setUp starts the service starts times, each start timed into setup
// together with BuildUDG over instances, and keeps the last server and
// graphs. Every start logs to a fresh directory; the kept one's is
// returned.
func setUp(spec churnSpec, in churnInputs, cfg config, rep *report, starts int, setup *Samples, instances [][]geospanner.Point) (*geospanner.Server, string, []*geospanner.Graph, error) {
	gs := make([]*geospanner.Graph, len(instances))
	for i := 0; ; i++ {
		walDir := filepath.Join(cfg.dir, fmt.Sprintf("wal-%d", i))
		runtime.GC()
		t0 := time.Now()
		srv, err := geospanner.NewServer(in.pts, in.radius, geospanner.WithWAL(walDir))
		for j := range instances {
			gs[j] = geospanner.BuildUDG(instances[j], in.buildRadius)
		}
		setup.RecordSince(t0, 1)
		rep.op(err)
		if err != nil {
			return nil, "", nil, fmt.Errorf("set-up: %w", err)
		}
		if i == starts-1 {
			return srv, walDir, gs, nil
		}
		if err := srv.Close(); err != nil {
			return nil, "", nil, fmt.Errorf("set-up: close log: %w", err)
		}
		os.RemoveAll(walDir)
	}
}

// passRun is one writer pass: a freshly set-up server taken through every
// batch while the reader routes on it.
type passRun struct {
	epochMS   []float64 // wall time of each Apply
	events    int       // applied events
	fp0       uint64    // fingerprint of the set-up epoch
	fps       []uint64  // fingerprint of each published epoch
	recoverS  *Samples  // wall time of each RecoverServer on a log copy
	replayed  int       // log records the recoveries replayed
	validated int
	srv       *geospanner.Server
}

// crashCopy is a copy of the write-ahead log taken between two Apply
// calls, with the epoch and fingerprint it must recover to.
type crashCopy struct {
	dir string
	seq uint64
	fp  uint64
}

// churnPass applies every batch to srv with the reader routing throughout
// and recording into win. Given the server's log directory it copies the
// log at the copy epoch and recovers a duplicate of the copy at each
// recovery epoch; given the instance graphs gs it builds each at its build
// epoch into b, dropping the graph afterwards. Both happen between two
// Apply calls with the reader paused: spread over the run, recoveries and
// builds see the same mix of host speeds as the epochs, where ones bunched
// into a phase of their own all saw the host of one moment.
func churnPass(in churnInputs, cfg config, rep *report, srv *geospanner.Server, walDir string, win *routeWindows, gs []*geospanner.Graph, b *buildRun) (*passRun, error) {
	r := &passRun{
		srv:      srv,
		epochMS:  make([]float64, len(in.batches)),
		fps:      make([]uint64, len(in.batches)),
		recoverS: NewSamples(len(in.recoverAt)),
	}
	crash := crashCopy{dir: filepath.Join(cfg.dir, "copy"), seq: in.copyAt}
	r.fp0 = srv.Current().Fingerprint()

	runtime.GC()
	start := func() *reader {
		return startReader(in.readerSeed, len(in.pts), win, func() (pinned, *graph.Frozen, []health.Component) {
			ep := srv.Current()
			return ep, ep.UDG.Frozen, ep.Report.Components
		})
	}
	rd := start()
	pause := func() {
		rd.halt()
		r.validated += rd.validated
		rd.report(rep)
	}
	defer pause()
	for i, batch := range in.batches {
		seq := uint64(i + 1)
		t0 := time.Now()
		ep, err := srv.Apply(batch)
		elapsed := time.Since(t0)
		rep.op(err)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", seq, err)
		}
		r.epochMS[i] = elapsed.Seconds() * 1e3
		r.events += ep.Stats.Batch.Applied
		rep.check(ep.Stats.Batch.Rejected == 0, "epoch %d: %d scheduled events rejected", seq, ep.Stats.Batch.Rejected)
		r.fps[i] = ep.Fingerprint()
		if walDir != "" && seq == crash.seq {
			if err := copyDir(walDir, crash.dir); err != nil {
				return nil, fmt.Errorf("copy log at epoch %d: %w", seq, err)
			}
			crash.fp = r.fps[i]
		}
		recoverDup := walDir != "" && in.recoverAt[seq]
		var builds []int
		if gs != nil {
			builds = in.buildAt[seq]
		}
		if !recoverDup && len(builds) == 0 {
			continue
		}
		dup := crash
		if recoverDup {
			dup.dir = filepath.Join(cfg.dir, fmt.Sprintf("recover-%d", seq))
			if err := copyDir(crash.dir, dup.dir); err != nil {
				return nil, fmt.Errorf("duplicate log copy at epoch %d: %w", seq, err)
			}
		}
		pause()
		if recoverDup {
			r.recoverCopy(rep, dup)
			os.RemoveAll(dup.dir)
		}
		for _, j := range builds {
			b.buildOne(rep, j, gs[j], in.buildRadius)
			gs[j] = nil // the instances are not part of the service's heap
		}
		runtime.GC()
		rd = start()
	}
	return r, nil
}

// recoverCopy times RecoverServer on one log copy and checks the
// recovered epoch against the live one at copy time.
func (r *passRun) recoverCopy(rep *report, c crashCopy) {
	runtime.GC()
	t0 := time.Now()
	srv, info, err := geospanner.RecoverServer(c.dir)
	elapsed := time.Since(t0)
	rep.op(err)
	if err != nil {
		return
	}
	r.recoverS.Record(elapsed.Seconds())
	r.replayed += info.Replayed
	fp := srv.Current().Fingerprint()
	rep.check(info.Seq == c.seq && fp == c.fp,
		"copy at epoch %d recovered epoch %d fingerprint %016x, want %016x", c.seq, info.Seq, fp, c.fp)
	if err := srv.Close(); err != nil {
		rep.op(fmt.Errorf("close recovered log: %w", err))
	}
}

// Route latency is recorded per window of consecutive queries. The
// reported route percentiles are a low quantile over the windows' own
// percentiles: the windows the host disturbed least, which repeat from
// run to run where a whole-run percentile moves with the host's slow
// periods.
const (
	windowQueries  = 1 << 16 // a tenth to a fifth of a second of reader load
	windowQuantile = 10
	// minWindowQueries keeps a final partial window only when its p99
	// rests on at least ten queries.
	minWindowQueries = 1000
	maxWindows       = 4096
)

// routeWindows records the reader's route latencies: one histogram holds
// the current window; when it is full its p50 and p99 are stored and it
// is cleared. Everything is allocated before the reader starts.
type routeWindows struct {
	h        Histogram
	p50, p99 *Samples
	queries  uint64
}

func newRouteWindows() *routeWindows {
	return &routeWindows{p50: NewSamples(maxWindows), p99: NewSamples(maxWindows)}
}

// record adds one query's latency.
func (w *routeWindows) record(d time.Duration) {
	w.h.Record(d.Nanoseconds())
	w.queries++
	if w.h.Count() == windowQueries {
		w.flush()
	}
}

// flush closes the current window.
func (w *routeWindows) flush() {
	if w.h.Count() >= minWindowQueries {
		p50, _ := w.h.Percentile(50)
		p99, _ := w.h.Percentile(99)
		w.p50.Record(p50)
		w.p99.Record(p99)
	}
	w.h = Histogram{}
}

// pinned is what the reader needs of a published epoch.
type pinned interface {
	Route(src, dst int) ([]int, error)
}

// reader is the closed-loop route client: one goroutine that pins the
// current epoch, routes one uniform pair, and repeats until halted. Its
// recorder and pair picker are sized before it starts.
type reader struct {
	load      func() (pinned, *graph.Frozen, []health.Component)
	pick      *pairPicker
	win       *routeWindows
	stop      atomic.Bool
	done      chan struct{}
	queries   int
	validated int
	errs      []error
}

func startReader(seed int64, n int, win *routeWindows, load func() (pinned, *graph.Frozen, []health.Component)) *reader {
	r := &reader{load: load, pick: newPairPicker(seed, n), win: win, done: make(chan struct{})}
	win.flush() // a window never spans a pause between readers
	go r.loop()
	return r
}

func (r *reader) loop() {
	defer close(r.done)
	var last pinned
	var udg *graph.Frozen
	for !r.stop.Load() {
		ep, f, comps := r.load()
		if ep != last {
			if err := r.pick.reset(comps); err != nil {
				r.errs = append(r.errs, err)
				return
			}
			last, udg = ep, f
		}
		src, dst := r.pick.pick()
		t0 := time.Now()
		path, err := ep.Route(src, dst)
		r.win.record(time.Since(t0))
		r.queries++
		if err != nil {
			r.errs = append(r.errs, fmt.Errorf("route %d->%d: %w", src, dst, err))
			continue
		}
		if r.queries%validateEvery == 0 {
			r.validated++
			if err := validatePath(path, src, dst, udg); err != nil {
				r.errs = append(r.errs, err)
			}
		}
	}
	r.win.flush()
}

// halt stops the reader and waits for it to exit.
func (r *reader) halt() {
	r.stop.Store(true)
	<-r.done
}

// report adds the reader's queries and failures to the tally. Call after
// halt.
func (r *reader) report(rep *report) {
	rep.attempted += r.queries - len(r.errs)
	for _, err := range r.errs {
		rep.op(err)
	}
}

// validatePath checks a route hop by hop: it starts at src, ends at dst,
// and every step is an edge of the epoch's live unit disk graph.
func validatePath(path []int, src, dst int, udg *graph.Frozen) error {
	if len(path) < 2 || path[0] != src || path[len(path)-1] != dst {
		return fmt.Errorf("route %d->%d: bad endpoints in %v", src, dst, path)
	}
	for i := 1; i < len(path); i++ {
		if !udg.HasEdge(path[i-1], path[i]) {
			return fmt.Errorf("route %d->%d: step %d-%d is not a live link", src, dst, path[i-1], path[i])
		}
	}
	return nil
}

// micros converts a nanosecond reading to microseconds.
func micros(ns float64, err error) (float64, error) { return ns / 1e3, err }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// digestWords hashes a list of fingerprints into one.
func digestWords(ws []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// copyDir copies the regular files of a log directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
