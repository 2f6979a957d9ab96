package geospanner

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// The facade tests exercise the public API end to end, exactly as the
// examples and a downstream user would.

func TestPublicPipeline(t *testing.T) {
	inst, err := GenerateInstance(1, 80, 200, 60)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(inst.UDG, inst.Radius)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LDelICDS.IsPlanarEmbedding() {
		t.Fatal("LDel(ICDS) not planar")
	}
	if !res.LDelICDSPrime.Connected() {
		t.Fatal("LDel(ICDS') disconnected")
	}
	if res.MsgsLDel.Max() == 0 {
		t.Fatal("no message accounting")
	}

	cent, err := BuildCentralized(inst.UDG, inst.Radius)
	if err != nil {
		t.Fatal(err)
	}
	if cent.LDelICDS.NumEdges() != res.LDelICDS.NumEdges() {
		t.Fatal("centralized and distributed builds disagree")
	}
}

// TestPublicShardedBuild pins the facade's WithShards contract: a sharded
// build is bit-identical to the default one-shard build — graphs,
// ledgers, rounds — for several shard counts, including composed with
// WithWorkers through BuildMany.
func TestPublicShardedBuild(t *testing.T) {
	inst, err := GenerateInstance(1, 80, 200, 60)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(inst.UDG, inst.Radius)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		got, err := Build(inst.UDG.Clone(), inst.Radius, WithShards(p))
		if err != nil {
			t.Fatal(err)
		}
		if !got.LDelICDS.Equal(want.LDelICDS) || !got.LDelICDSPrime.Equal(want.LDelICDSPrime) {
			t.Fatalf("shards=%d: output graphs diverge from the default build", p)
		}
		if got.Rounds != want.Rounds {
			t.Fatalf("shards=%d: rounds %+v, want %+v", p, got.Rounds, want.Rounds)
		}
		if !reflect.DeepEqual(got.MsgsLDel.PerNode, want.MsgsLDel.PerNode) {
			t.Fatalf("shards=%d: message ledgers diverge", p)
		}
	}

	// Sharding composes with BuildMany's per-instance parallelism.
	instances := make([]*Instance, 3)
	for i := range instances {
		if instances[i], err = GenerateInstance(int64(10+i), 40, 200, 60); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := BuildMany(instances)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildMany(instances, WithWorkers(2), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if !sharded[i].LDelICDS.Equal(seq[i].LDelICDS) {
			t.Fatalf("instance %d: sharded BuildMany diverges", i)
		}
	}
}

func TestPublicBaselines(t *testing.T) {
	inst, err := GenerateInstance(2, 60, 200, 60)
	if err != nil {
		t.Fatal(err)
	}
	rng := RNG(inst.UDG)
	gg := Gabriel(inst.UDG)
	udel, err := UDel(inst.UDG)
	if err != nil {
		t.Fatal(err)
	}
	yao, err := Yao(inst.UDG, 6)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := PlanarLDel(inst.UDG, inst.Radius)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{
		"RNG": rng, "GG": gg, "UDel": udel, "Yao": yao, "PLDel": flat,
	} {
		if !g.Connected() {
			t.Fatalf("%s disconnected", name)
		}
		if g.NumEdges() >= inst.UDG.NumEdges() {
			t.Fatalf("%s not sparser than UDG", name)
		}
	}
	s := Stretch(inst.UDG, gg, StretchOptions{})
	if s.LengthAvg < 1 || s.Disconnected != 0 {
		t.Fatalf("GG stretch = %+v", s)
	}
}

func TestPublicRouting(t *testing.T) {
	inst, err := GenerateInstance(3, 70, 200, 60)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BuildCentralized(inst.UDG, inst.Radius)
	if err != nil {
		t.Fatal(err)
	}
	path, err := RouteViaBackbone(res, 0, 69)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 0 || path[len(path)-1] != 69 {
		t.Fatalf("bad endpoints: %v", path)
	}

	// Greedy error matching through the facade.
	void := []Point{Pt(0, 0), Pt(0, 1), Pt(1, 2), Pt(2, 2), Pt(3, 1), Pt(3, 0)}
	g := BuildUDG(void, 1.5)
	g.RemoveEdge(0, 5)
	if _, err := RouteGreedy(g, 5, 0); !errors.Is(err, ErrGreedyStuck) {
		t.Fatalf("err = %v, want ErrGreedyStuck", err)
	}
	if _, err := RouteGFG(g, 5, 0); err != nil {
		t.Fatal(err)
	}
}

func TestNewGraphAndPt(t *testing.T) {
	g := NewGraph([]Point{Pt(0, 0), Pt(1, 1)})
	g.AddEdge(0, 1)
	if g.NumEdges() != 1 {
		t.Fatal("facade graph construction broken")
	}
}

func TestGenerateInstanceDist(t *testing.T) {
	for _, dist := range []Distribution{DistUniform, DistClustered, DistCorridor, DistRing} {
		inst, err := GenerateInstanceDist(3, dist, 50, 200, 60)
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		res, err := BuildCentralized(inst.UDG, inst.Radius)
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		if !res.LDelICDS.IsPlanarEmbedding() {
			t.Fatalf("%v: backbone not planar", dist)
		}
	}
}

func TestDiscoverRouteFacade(t *testing.T) {
	inst, err := GenerateInstance(5, 60, 200, 60)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BuildCentralized(inst.UDG, inst.Radius)
	if err != nil {
		t.Fatal(err)
	}
	route, msgs, err := DiscoverRoute(res, 0, 59)
	if err != nil {
		t.Fatal(err)
	}
	if route[0] != 0 || route[len(route)-1] != 59 {
		t.Fatalf("route = %v", route)
	}
	if msgs <= 0 || msgs > inst.UDG.N()+20 {
		t.Fatalf("message cost = %d", msgs)
	}
}

// TestBuildManyTraceDeterministic pins BuildMany's merge contract: the
// merged event stream — trials stamped and concatenated in index order —
// is identical for any WithWorkers value, wall time excepted.
func TestBuildManyTraceDeterministic(t *testing.T) {
	var insts []*Instance
	for seed := int64(1); seed <= 4; seed++ {
		inst, err := GenerateInstance(seed, 30, 200, 60)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	run := func(workers int) []Event {
		ring := NewRingTracer(1 << 20)
		if _, err := BuildMany(insts, WithWorkers(workers), WithTracer(ring)); err != nil {
			t.Fatal(err)
		}
		events := ring.Events()
		for i := range events {
			events[i].WallNS = 0
		}
		return events
	}
	seq, par := run(1), run(3)
	if len(seq) != len(par) {
		t.Fatalf("sequential run emitted %d events, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("event %d differs:\nsequential: %+v\nparallel:   %+v", i, seq[i], par[i])
		}
	}
}

// TestBuildManyErrorLowestIndex pins the batch error contract: the error
// of the lowest failing instance index is returned, as a sequential run
// would report first.
func TestBuildManyErrorLowestIndex(t *testing.T) {
	var insts []*Instance
	for seed := int64(1); seed <= 3; seed++ {
		inst, err := GenerateInstance(seed, 30, 200, 60)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	_, err := BuildMany(insts, WithWorkers(3), WithMaxRounds(1))
	if err == nil {
		t.Fatal("expected a quiescence failure")
	}
	if !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("err = %v, want ErrNotQuiescent", err)
	}
	var qe *QuiescenceError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuiescenceError via errors.As", err)
	}
	if want := "build instance 0:"; !errors.Is(err, ErrNotQuiescent) || err.Error()[:len(want)] != want {
		t.Fatalf("err = %q, want prefix %q", err, want)
	}
}

// TestPublicPartialBuild exercises the degraded-mode API end to end: a
// crash schedule, a partial build, the health report, and the invariant
// checker.
func TestPublicPartialBuild(t *testing.T) {
	inst, err := GenerateInstance(2, 80, 200, 45)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(inst.UDG, inst.Radius,
		WithPartialResults(),
		WithFaults(CrashAt(map[int]int{4: 0, 19: 0, 33: 0})))
	if err != nil {
		t.Fatal(err)
	}
	if res.Health == nil {
		t.Fatal("partial build must carry a HealthReport")
	}
	if got := len(res.Health.DeadNodes); got != 3 {
		t.Fatalf("dead nodes = %d, want 3", got)
	}
	if err := VerifyPartial(res); err != nil {
		t.Fatal(err)
	}
}

// TestBuildManyStopsOnCancel: once the shared context is canceled,
// BuildMany stops dispatching full builds and reports the context error.
func TestBuildManyStopsOnCancel(t *testing.T) {
	var insts []*Instance
	for seed := int64(0); seed < 4; seed++ {
		inst, err := GenerateInstance(seed, 40, 200, 60)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildMany(insts, WithContext(ctx)); err == nil {
		t.Fatal("BuildMany under canceled context should error")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should unwrap to context.Canceled, got %v", err)
	}

	// In partial mode every instance still gets a (canceled) result.
	results, err := BuildMany(insts, WithContext(ctx), WithPartialResults(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Health == nil || !res.Health.Canceled {
			t.Fatalf("instance %d: expected canceled health report", i)
		}
	}
}

// TestPublicDeadline: WithDeadline returns a partial result within the
// budget rather than an error.
func TestPublicDeadline(t *testing.T) {
	inst, err := GenerateInstance(3, 60, 200, 55)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(inst.UDG, inst.Radius, WithDeadline(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Health.Canceled {
		t.Fatal("expired deadline should be recorded in the health report")
	}
}

// TestPartialBuildManyWorkerInvariance: partial builds of damaged
// instances are bit-identical for any BuildMany worker count.
func TestPartialBuildManyWorkerInvariance(t *testing.T) {
	var insts []*Instance
	for seed := int64(10); seed < 16; seed++ {
		inst, err := GenerateInstance(seed, 60, 200, 45)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	run := func(workers int) []*Result {
		results, err := BuildMany(insts,
			WithPartialResults(),
			WithFaults(CrashAt(map[int]int{2: 0, 11: 0, 30: 4})),
			WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	seq := run(1)
	for _, workers := range []int{2, 4, 8} {
		par := run(workers)
		for i := range seq {
			if !reflect.DeepEqual(seq[i].Health, par[i].Health) {
				t.Fatalf("workers=%d instance %d: health differs", workers, i)
			}
			if !seq[i].LDelICDS.Equal(par[i].LDelICDS) {
				t.Fatalf("workers=%d instance %d: LDel(ICDS) differs", workers, i)
			}
			if !reflect.DeepEqual(seq[i].MsgsLDel, par[i].MsgsLDel) {
				t.Fatalf("workers=%d instance %d: message stats differ", workers, i)
			}
		}
	}
}
