package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"geospanner"
	"geospanner/internal/cluster"
	"geospanner/internal/connector"
	"geospanner/internal/graph"
	"geospanner/internal/ldel"
)

// coldSpec is the cold-build part of a workload: a set of instances
// drawn from the seed, each built twice — with Build (the distributed
// protocols on the default simulation kernel) and with BuildCentralized
// (the reference implementations). It never touches the service, the log
// or incremental maintenance.
type coldSpec struct {
	n int
	// instancesPerSecond turns the time budget into a fixed instance
	// count, calibrated like churnSpec.epochsPerSecond so the builds take
	// about a third of the budget.
	instancesPerSecond float64
}

var coldBuild = coldSpec{n: 1000, instancesPerSecond: 0.42}

// instancesFor is the fixed instance count of a time budget.
func (spec coldSpec) instancesFor(seconds int) int {
	return int(math.Ceil(float64(seconds) * spec.instancesPerSecond))
}

// buildRun is what the cold builds measured and produced.
type buildRun struct {
	build, central   *Samples // wall time of each Build and BuildCentralized
	rounds, messages int
	digests          []uint64 // digest of each instance's outputs
}

func newBuildRun(count int) *buildRun {
	return &buildRun{build: NewSamples(count), central: NewSamples(count), digests: make([]uint64, count)}
}

// buildOne builds instance i's graph with Build and with
// BuildCentralized, timing each, and checks that both give the same
// planar backbone.
func (b *buildRun) buildOne(rep *report, i int, g *geospanner.Graph, radius float64) {
	runtime.GC()
	t0 := time.Now()
	res, err := geospanner.Build(g, radius)
	b.build.RecordSince(t0, 1)
	rep.op(err)
	runtime.GC()
	t0 = time.Now()
	ref, errC := geospanner.BuildCentralized(g, radius)
	b.central.RecordSince(t0, 1)
	rep.op(errC)
	if err != nil || errC != nil {
		return
	}
	rep.check(res.LDelICDS.Equal(ref.LDelICDS), "instance %d: Build and BuildCentralized planar backbones differ", i)
	h := fnv.New64a()
	hashBuild(h, res.Cluster, res.Conn.CDS, res.LDelICDS, [3]int{res.Rounds.Cluster, res.Rounds.Connector, res.Rounds.LDel})
	b.digests[i] = h.Sum64()
	b.rounds += res.Rounds.Total()
	b.messages += res.MsgsLDel.Total()
}

// hashBuild adds one build's outputs — roles, CDS, planar backbone and
// per-stage rounds — to a digest.
func hashBuild(h hash.Hash64, cl *cluster.Result, cds, pldel *graph.Graph, rounds [3]int) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range cl.Status {
		word(uint64(s))
	}
	for _, g := range []*graph.Graph{cds, pldel} {
		word(uint64(g.NumEdges()))
		for _, e := range g.Edges() {
			word(uint64(e.U)<<32 | uint64(e.V))
		}
	}
	for _, r := range rounds {
		word(uint64(r))
	}
}

// tracedColdBuild builds every instance with Build untraced, as the
// reference, then makes Build's and BuildCentralized's layer calls in
// their order under spans and checks that both traced pipelines produce
// the reference outputs.
func tracedColdBuild(cfg config, rep *report, pts [][]geospanner.Point, radius float64) error {
	t := newTracer(9 * len(pts))
	gs := make([]*geospanner.Graph, len(pts))
	for i := range pts {
		sp := t.begin("udg.build", i, -1)
		gs[i] = geospanner.BuildUDG(pts[i], radius)
		t.end(sp)
	}
	rounds, messages := 0, 0
	for i, g := range gs {
		res, err := geospanner.Build(g, radius)
		rep.op(err)
		if err != nil {
			continue
		}
		want := fnv.New64a()
		hashBuild(want, res.Cluster, res.Conn.CDS, res.LDelICDS, [3]int{res.Rounds.Cluster, res.Rounds.Connector, res.Rounds.LDel})

		runtime.GC()
		root := t.begin("core.build", i, -1)
		sp := t.begin("cluster.run", i, root)
		cl, clNet, err := cluster.Run(g, 0)
		t.end(sp)
		if err != nil {
			t.end(root)
			rep.op(err)
			continue
		}
		sp = t.begin("connector.run", i, root)
		conn, connNet, err := connector.Run(g, cl, 0)
		t.end(sp)
		if err != nil {
			t.end(root)
			rep.op(err)
			continue
		}
		sp = t.begin("ldel.run", i, root)
		ld, ldNet, err := ldel.Run(conn.ICDS, conn.InBackbone, radius, 0)
		t.end(sp)
		t.end(root)
		rep.op(err)
		if err != nil {
			continue
		}
		got := fnv.New64a()
		hashBuild(got, cl, conn.CDS, ld.PLDel, [3]int{clNet.Rounds(), connNet.Rounds(), ldNet.Rounds()})
		rep.check(got.Sum64() == want.Sum64(), "instance %d: traced distributed build differs from Build", i)
		rounds += clNet.Rounds() + connNet.Rounds() + ldNet.Rounds()
		messages += clNet.TotalSent() + connNet.TotalSent() + ldNet.TotalSent()

		runtime.GC()
		root = t.begin("core.build_centralized", i, -1)
		sp = t.begin("cluster.central", i, root)
		ccl := cluster.Centralized(g)
		t.end(sp)
		sp = t.begin("connector.central", i, root)
		cconn := connector.Centralized(g, ccl)
		t.end(sp)
		sp = t.begin("ldel.central", i, root)
		cld, err := ldel.Centralized(cconn.ICDS, cconn.InBackbone, radius)
		t.end(sp)
		t.end(root)
		rep.op(err)
		if err != nil {
			continue
		}
		got = fnv.New64a()
		hashBuild(got, ccl, cconn.CDS, cld.PLDel, [3]int{res.Rounds.Cluster, res.Rounds.Connector, res.Rounds.LDel})
		rep.check(got.Sum64() == want.Sum64(), "instance %d: traced centralized build differs from Build", i)
	}
	const ms = 1e-6
	rep.metric("udg.build_ms", "ms")(Median(t.rootTimes("udg.build", ms)))
	rep.metric("cluster.run_ms", "ms")(Median(t.times("core.build", "cluster.run", ms)))
	rep.metric("connector.run_ms", "ms")(Median(t.times("core.build", "connector.run", ms)))
	rep.metric("ldel.run_ms", "ms")(Median(t.times("core.build", "ldel.run", ms)))
	rep.metric("sim.rounds", "count")(float64(rounds), nil)
	rep.metric("sim.messages", "count")(float64(messages), nil)
	rep.metric("cluster.central_ms", "ms")(Median(t.times("core.build_centralized", "cluster.central", ms)))
	rep.metric("connector.central_ms", "ms")(Median(t.times("core.build_centralized", "connector.central", ms)))
	rep.metric("ldel.central_ms", "ms")(Median(t.times("core.build_centralized", "ldel.central", ms)))
	rep.detf("traced instances=%d sim_rounds=%d sim_messages=%d", len(gs), rounds, messages)
	if cfg.spans != "" {
		if err := t.write(buildSpans(cfg.spans)); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		rep.logf("spans: %d written to %s", len(t.spans), buildSpans(cfg.spans))
	}
	return nil
}

// buildSpans names the span file of the traced cold builds after the
// run's span file.
func buildSpans(path string) string {
	return strings.TrimSuffix(path, ".jsonl") + "-build.jsonl"
}
