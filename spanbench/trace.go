package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"geospanner"
	"geospanner/internal/cluster"
	"geospanner/internal/connector"
	"geospanner/internal/graph"
	"geospanner/internal/health"
	"geospanner/internal/ldel"
	"geospanner/internal/maintain"
	"geospanner/internal/routing"
	"geospanner/internal/wal"
)

// The traced run times each layer from the outside: it makes the exported
// calls serve.Server makes — in its order, on the same inputs — and
// records one span around each. Spans stay in memory and are written out
// when the run ends; the spans inside the program are a later change.

// span is one timed call. Spans of one epoch, recovery or build instance
// share an id; parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	id         int
	parent     int32
	start, end int64 // nanoseconds since the tracer's origin
}

// tracer records spans into a buffer sized before the timed phase.
type tracer struct {
	origin  time.Time
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index (-1 when the buffer is full).
func (t *tracer) begin(name string, id int, parent int32) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: int64(time.Since(t.origin))})
	return int32(len(t.spans) - 1)
}

// end closes span i and returns its duration in nanoseconds.
func (t *tracer) end(i int32) int64 {
	if i < 0 {
		return 0
	}
	s := &t.spans[i]
	s.end = int64(time.Since(t.origin))
	return s.end - s.start
}

// times sums, per id, the durations of the spans named name whose parent
// is named parent, scaled from nanoseconds by scale, in id order.
func (t *tracer) times(parent, name string, scale float64) []float64 {
	sum := make(map[int]float64)
	for _, s := range t.spans {
		if s.name == name && s.parent >= 0 && t.spans[s.parent].name == parent {
			sum[s.id] += float64(s.end-s.start) * scale
		}
	}
	ids := make([]int, 0, len(sum))
	for id := range sum {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = sum[id]
	}
	return out
}

// unattributed returns the share of the root spans named root not covered
// by their children: the part of the call the trace does not explain.
func (t *tracer) unattributed(root string) float64 {
	covered := make(map[int32]int64)
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	var total, self int64
	for i, s := range t.spans {
		if s.name == root && s.parent < 0 {
			total += s.end - s.start
			self += s.end - s.start - covered[int32(i)]
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(self) / float64(total)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t.dropped > 0 {
		return fmt.Errorf("span buffer full: %d spans dropped", t.dropped)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.name, s.id, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEpoch is the traced run's counterpart of a published epoch,
// assembled from the same layer calls.
type tracedEpoch struct {
	seq        uint64
	udg, bb    *graph.Snapshot
	report     *health.Report
	alive      []bool
	status     []cluster.Status
	domsOf     [][]int
	inBackbone []bool
	planner    *routing.Planner
	router     *routing.DSRouter
}

func (e *tracedEpoch) Route(src, dst int) ([]int, error) { return e.router.Route(src, dst, 0) }

// buildEpoch makes the calls of serve's epoch construction, in its order:
// the live UDG and backbone graphs, the dominator lists, the two
// snapshots, the router, and the live health report.
func (t *tracer) buildEpoch(st *maintain.State, seq uint64, conn *connector.Result, pldel *graph.Graph, parent int32, id int) *tracedEpoch {
	pts := st.Positions()
	alive, status := st.Roles()

	sp := t.begin("maintain.alive_graph", id, parent)
	aliveG := st.AliveGraph()
	t.end(sp)
	sp = t.begin("graph.snapshot", id, parent)
	liveG := graph.New(pts)
	liveG.AddAll(aliveG)
	bbG := graph.New(pts)
	bbG.AddAll(pldel)
	t.end(sp)

	cl := st.Clustering()
	domsOf := make([][]int, len(pts))
	for v := range domsOf {
		if len(cl.DominatorsOf[v]) > 0 {
			domsOf[v] = append([]int(nil), cl.DominatorsOf[v]...)
		}
	}
	inBackbone := append([]bool(nil), conn.InBackbone...)

	sp = t.begin("graph.snapshot", id, parent)
	udgSnap := liveG.SnapshotAt(seq)
	bbSnap := bbG.SnapshotAt(seq)
	t.end(sp)

	sp = t.begin("routing.router_build", id, parent)
	planner := routing.NewPlannerFrozen(bbSnap.Frozen)
	router := routing.NewDSRouterFrozen(udgSnap.Frozen, planner, domsOf, inBackbone)
	t.end(sp)

	sp = t.begin("health.report", id, parent)
	rpt := liveReport(liveG, alive, status)
	t.end(sp)

	return &tracedEpoch{seq: seq, udg: udgSnap, bb: bbSnap, report: rpt, alive: alive, status: status,
		domsOf: domsOf, inBackbone: inBackbone, planner: planner, router: router}
}

// liveReport is serve's per-epoch health report: dead nodes, live
// components, uncovered survivors.
func liveReport(liveG *graph.Graph, alive []bool, status []cluster.Status) *health.Report {
	r := &health.Report{Mode: health.ModeLive}
	for v, a := range alive {
		if !a {
			r.DeadNodes = append(r.DeadNodes, v)
		}
	}
	for _, comp := range liveG.Components() {
		if len(comp) == 1 && !alive[comp[0]] {
			continue
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

// fingerprint hashes a traced epoch exactly as serve's Epoch.Fingerprint
// hashes a published one, so equal values mean the traced run produced
// the bit-identical topology.
func (e *tracedEpoch) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(e.seq)
	word(uint64(len(e.alive)))
	for v := range e.alive {
		p := e.udg.Point(v)
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
	for _, f := range []*graph.Frozen{e.udg.Frozen, e.bb.Frozen} {
		for v := 0; v < f.N(); v++ {
			for _, u := range f.Neighbors(v) {
				if int(u) > v {
					word(uint64(v)<<32 | uint64(u))
				}
			}
		}
	}
	return h.Sum64()
}

// retimeEvery samples the recompute epochs a traced run re-times: every
// fourth keeps the p50 on some 25 samples in churn-burst while keeping
// the traced run within its time budget.
const retimeEvery = 4

// rebuilds re-times the two from-scratch derivations of a full
// recompute — connector.CentralizedWitness and ldel.CentralizedWitness —
// on the state's current inputs, outside any epoch span, to split a
// recomputing Structures call between the layers.
type rebuilds struct {
	triangles []float64
}

func (r *rebuilds) retime(t *tracer, st *maintain.State, id int) error {
	g, cl := st.AliveGraph(), st.Clustering()
	sp := t.begin("connector.rebuild", id, -1)
	conn, _ := connector.CentralizedWitness(g, cl)
	t.end(sp)
	sp = t.begin("ldel.rebuild", id, -1)
	res, _, err := ldel.CentralizedWitness(conn.ICDS, conn.InBackbone, st.Radius())
	t.end(sp)
	if err != nil {
		return fmt.Errorf("re-timed ldel rebuild: %w", err)
	}
	r.triangles = append(r.triangles, float64(len(res.Triangles)))
	return nil
}

// rootTimes returns the durations of the root spans named name.
func (t *tracer) rootTimes(name string, scale float64) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.parent < 0 {
			out = append(out, float64(s.end-s.start)*scale)
		}
	}
	return out
}

// tracedChurn runs the traced pass of a churn workload after the
// untraced reference pass ref on the same inputs, checks that every traced
// epoch equals the untraced one, and prints the per-layer metrics.
func tracedChurn(spec churnSpec, in churnInputs, cfg config, rep *report, ref *passRun) error {
	// An epoch, a recovery or the set-up records at most 12 spans,
	// re-timed rebuilds included.
	const spansPerEpoch = 12
	t := newTracer(spansPerEpoch * (len(in.batches) + spec.recoveries + 1))
	rb := &rebuilds{}
	frac := maintain.DefaultFallbackFraction

	// Set-up: serve.New's calls.
	runtime.GC()
	root := t.begin("serve.new", 0, -1)
	sp := t.begin("maintain.new", 0, root)
	st := maintain.New(append(in.pts[:0:0], in.pts...), in.radius)
	t.end(sp)
	sp = t.begin("maintain.structures", 0, root)
	conn, pldel, err := st.Structures()
	t.end(sp)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	ep := t.buildEpoch(st, 0, conn, pldel, root, 0)
	walDir := filepath.Join(cfg.dir, "wal-traced")
	sp = t.begin("wal.create", 0, root)
	log, err := wal.Create(walDir, st, 0, frac, wal.Config{})
	t.end(sp)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer log.Close()
	t.end(root)
	rep.check(ep.fingerprint() == ref.fp0, "traced set-up epoch differs from the untraced one")
	if err := rb.retime(t, st, 0); err != nil {
		return err
	}

	// Writer phase: serve.Server.Apply's calls, with the reader routing
	// on the traced epochs.
	var cur atomic.Pointer[tracedEpoch]
	cur.Store(ep)
	patches0, pfb0 := st.Patches, st.PatchFallbacks
	roleFallbacks, recomputes := 0, 0
	var compactMS []float64
	crash := crashCopy{dir: filepath.Join(cfg.dir, "copy-traced"), seq: in.copyAt}
	runtime.GC()
	rd := startReader(in.readerSeed, spec.n, newRouteWindows(), func() (pinned, *graph.Frozen, []health.Component) {
		e := cur.Load()
		return e, e.udg.Frozen, e.report.Components
	})
	for i, batch := range in.batches {
		seq := uint64(i + 1)
		id := int(seq)
		rec0 := st.Recomputes
		root := t.begin("serve.apply", id, -1)
		sp := t.begin("wal.append", id, root)
		err := log.Append(seq, batch)
		t.end(sp)
		if err != nil {
			rd.halt()
			return fmt.Errorf("traced epoch %d: %w", seq, err)
		}
		sp = t.begin("maintain.apply_batch", id, root)
		bs := st.ApplyBatch(batch, frac)
		t.end(sp)
		sp = t.begin("maintain.structures", id, root)
		conn, pldel, err := st.Structures()
		t.end(sp)
		if err != nil {
			rd.halt()
			return fmt.Errorf("traced epoch %d: %w", seq, err)
		}
		ep := t.buildEpoch(st, seq, conn, pldel, root, id)
		cur.Store(ep)
		sp = t.begin("wal.compact", id, root)
		wrote, err := log.MaybeCompact(st, seq)
		d := t.end(sp)
		if err != nil {
			rd.halt()
			return fmt.Errorf("traced epoch %d: %w", seq, err)
		}
		if wrote {
			compactMS = append(compactMS, float64(d)/1e6)
		}
		t.end(root)

		if bs.Fallback {
			roleFallbacks++
		}
		rep.check(bs.Rejected == 0 && ep.fingerprint() == ref.fps[i],
			"traced epoch %d differs from the untraced one (%d rejected)", seq, bs.Rejected)
		if st.Recomputes > rec0 {
			recomputes++
		}
		if st.Recomputes > rec0 && (recomputes-1)%retimeEvery == 0 {
			if err := rb.retime(t, st, id); err != nil {
				rd.halt()
				return err
			}
		}
		if seq == crash.seq {
			if err := copyDir(walDir, crash.dir); err != nil {
				rd.halt()
				return fmt.Errorf("copy traced log at epoch %d: %w", seq, err)
			}
			crash.fp = ref.fps[i]
		}
	}
	rd.halt()
	rd.report(rep)
	epochs := len(in.batches)
	patched, pfb := st.Patches-patches0, st.PatchFallbacks-pfb0

	// Recovery: serve.Recover's calls on duplicates of the traced log's
	// copy, as many as the untraced run recovers.
	replayed := 0
	for i := 0; i < len(in.recoverAt); i++ {
		c := crash
		c.dir = filepath.Join(cfg.dir, fmt.Sprintf("recover-traced-%d", i))
		if err := copyDir(crash.dir, c.dir); err != nil {
			return fmt.Errorf("duplicate traced log copy: %w", err)
		}
		runtime.GC()
		root := t.begin("serve.recover", i, -1)
		sp := t.begin("wal.recover", i, root)
		rlog, res, err := wal.Recover(c.dir, math.NaN(), wal.Config{})
		t.end(sp)
		rep.op(err)
		if err != nil {
			t.end(root)
			continue
		}
		replayed += res.Replayed
		sp = t.begin("maintain.structures", i, root)
		conn, pldel, err := res.State.Structures()
		t.end(sp)
		if err != nil {
			t.end(root)
			rlog.Close()
			rep.op(fmt.Errorf("recovered copy %d: %w", c.seq, err))
			continue
		}
		ep := t.buildEpoch(res.State, res.Seq, conn, pldel, root, i)
		t.end(root)
		rep.check(res.Seq == c.seq && ep.fingerprint() == c.fp, "traced recovery of the copy at epoch %d differs", c.seq)
		if err := rlog.Close(); err != nil {
			rep.op(fmt.Errorf("close recovered log: %w", err))
		}
		// Every duplicate recovers the same state; re-time its derivation once.
		if i == 0 {
			if err := rb.retime(t, res.State, -1); err != nil {
				return err
			}
		}
	}

	final := cur.Load()
	conn, pldel, err = st.Structures()
	if err == nil {
		err = st.VerifyBackbone(conn, pldel)
	}
	rep.check(err == nil, "traced final state backbone: %v", err)
	if err := quietRoutes(rep, ref.srv, final, in.pairSeed); err != nil {
		return err
	}

	// Per-layer metrics.
	const us, ms = 1e-3, 1e-6
	appends := t.times("serve.apply", "wal.append", us)
	rep.metric("wal.append_us_p50", "us")(Median(appends))
	rep.metric("wal.append_us_p90", "us")(Percentile(appends, 90))
	rep.metric("wal.compact_ms", "ms")(Median(compactMS))
	rep.metric("wal.create_ms", "ms")(Median(t.times("serve.new", "wal.create", ms)))
	rep.metric("wal.recover_ms", "ms")(Median(t.times("serve.recover", "wal.recover", ms)))
	rep.metric("wal.replayed_records", "count")(float64(replayed), nil)
	rep.metric("maintain.recover_structures_ms", "ms")(Median(t.times("serve.recover", "maintain.structures", ms)))
	structures := t.times("serve.apply", "maintain.structures", ms)
	rep.metric("maintain.apply_batch_us_p50", "us")(Median(t.times("serve.apply", "maintain.apply_batch", us)))
	rep.metric("maintain.structures_ms_p50", "ms")(Median(structures))
	rep.metric("maintain.structures_ms_p90", "ms")(Percentile(structures, 90))
	rep.metric("maintain.patched_epochs", "count")(float64(patched), nil)
	rep.metric("maintain.patch_fallbacks", "count")(float64(pfb), nil)
	rep.metric("maintain.role_fallbacks", "count")(float64(roleFallbacks), nil)
	rep.metric("maintain.patch_hit_ratio", "ratio")(float64(patched)/float64(epochs), nil)
	rep.metric("maintain.new_ms", "ms")(Median(t.times("serve.new", "maintain.new", ms)))
	rep.metric("maintain.initial_structures_ms", "ms")(Median(t.times("serve.new", "maintain.structures", ms)))
	rep.metric("connector.rebuild_ms_p50", "ms")(Median(t.rootTimes("connector.rebuild", ms)))
	rep.metric("ldel.rebuild_ms_p50", "ms")(Median(t.rootTimes("ldel.rebuild", ms)))
	rep.metric("ldel.triangles", "count")(Median(rb.triangles))
	rep.metric("graph.snapshot_ms_p50", "ms")(Median(t.times("serve.apply", "graph.snapshot", ms)))
	rep.metric("routing.router_build_us_p50", "us")(Median(t.times("serve.apply", "routing.router_build", us)))
	rep.metric("health.report_us_p50", "us")(Median(t.times("serve.apply", "health.report", us)))
	rep.metric("serve.unattributed_share", "ratio")(t.unattributed("serve.apply"), nil)
	traced, err := Median(t.rootTimes("serve.apply", ms))
	untraced, err2 := Median(ref.epochMS)
	if err == nil {
		err = err2
	}
	rep.metric("serve.trace_overhead", "ratio")(traced/untraced, err)

	rep.logf("traced: %d epochs, %d recoveries, %d re-timed rebuilds, %d routes by the reader",
		epochs, len(in.recoverAt), len(rb.triangles), rd.queries)
	rep.detf("traced patched_epochs=%d patch_fallbacks=%d role_fallbacks=%d recomputes=%d",
		patched, pfb, roleFallbacks, recomputes)
	rep.detf("traced replayed_records=%d rebuilds=%d triangles_total=%.0f final_fingerprint=%016x",
		replayed, len(rb.triangles), sum(rb.triangles), final.fingerprint())
	if cfg.spans != "" {
		if err := t.write(cfg.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		rep.logf("spans: %d written to %s", len(t.spans), cfg.spans)
	}
	return nil
}

// quietRoutes times (*Epoch).Route on the untraced server's final epoch
// over a fixed seeded pair list with no writer running, counts the
// allocations of those queries, and times the GFG crossing of each pair
// between its gateways on the traced final epoch's planner.
func quietRoutes(rep *report, srv *geospanner.Server, tr *tracedEpoch, seed int64) error {
	ep := srv.Current()
	pairs, err := genPairs(seed, ep.N(), quietPairs, ep.Report.Components)
	if err != nil {
		return fmt.Errorf("quiet pairs: %w", err)
	}
	routeH, gfgH := new(Histogram), new(Histogram)
	hops, direct := 0, 0
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range pairs {
		t0 := time.Now()
		path, err := ep.Route(p[0], p[1])
		routeH.Record(time.Since(t0).Nanoseconds())
		if err == nil {
			err = validatePath(path, p[0], p[1], ep.UDG.Frozen)
		}
		rep.op(err)
		if err != nil {
			continue
		}
		hops += len(path) - 1
		if len(path) == 2 {
			direct++
		}
	}
	runtime.ReadMemStats(&m1)
	gateway := func(v int) int {
		if tr.inBackbone[v] {
			return v
		}
		return tr.domsOf[v][0]
	}
	for _, p := range pairs {
		gs, gd := gateway(p[0]), gateway(p[1])
		if gs == gd || ep.UDG.HasEdge(p[0], p[1]) {
			continue
		}
		t0 := time.Now()
		_, err := tr.planner.RouteGFG(gs, gd, 0)
		gfgH.Record(time.Since(t0).Nanoseconds())
		rep.op(err)
	}
	q := float64(len(pairs))
	rep.metric("routing.route_us_p50", "us")(micros(routeH.Percentile(50)))
	rep.metric("routing.route_us_p99", "us")(micros(routeH.Percentile(99)))
	rep.metric("routing.gfg_us_p50", "us")(micros(gfgH.Percentile(50)))
	rep.metric("routing.allocs_per_route", "count")(float64(m1.Mallocs-m0.Mallocs)/q, nil)
	rep.metric("routing.bytes_per_route", "B")(float64(m1.TotalAlloc-m0.TotalAlloc)/q, nil)
	rep.metric("routing.direct_share", "ratio")(float64(direct)/q, nil)
	rep.metric("routing.hops_mean", "count")(float64(hops)/q, nil)
	rep.detf("quiet routes=%d hops=%d direct=%d gfg=%d", len(pairs), hops, direct, gfgH.Count())
	return nil
}
