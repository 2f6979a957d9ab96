package geospanner_test

import (
	"errors"
	"fmt"
	"log"

	"geospanner"
)

// Example builds the paper's planar spanner backbone for a small random
// network and prints its headline properties.
func Example() {
	inst, err := geospanner.GenerateInstance(42, 60, 200, 60)
	if err != nil {
		log.Fatal(err)
	}
	res, err := geospanner.BuildCentralized(inst.UDG, inst.Radius)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("planar:", res.LDelICDS.IsPlanarEmbedding())
	fmt.Println("spans all nodes:", res.LDelICDSPrime.Connected())
	// Output:
	// planar: true
	// spans all nodes: true
}

// ExampleStretch measures how much longer backbone routes are than optimal
// unit-disk-graph routes.
func ExampleStretch() {
	inst, err := geospanner.GenerateInstance(7, 60, 200, 60)
	if err != nil {
		log.Fatal(err)
	}
	res, err := geospanner.BuildCentralized(inst.UDG, inst.Radius)
	if err != nil {
		log.Fatal(err)
	}
	s := geospanner.Stretch(inst.UDG, res.LDelICDSPrime,
		geospanner.StretchOptions{DirectEdges: true})
	fmt.Println("disconnected pairs:", s.Disconnected)
	fmt.Println("stretch at least 1:", s.LengthAvg >= 1 && s.HopAvg >= 1)
	// Output:
	// disconnected pairs: 0
	// stretch at least 1: true
}

// ExampleRouteGFG routes around a void where greedy forwarding fails.
func ExampleRouteGFG() {
	// A "C" of nodes around a hole; node 5 cannot make greedy progress
	// toward node 0.
	pts := []geospanner.Point{
		geospanner.Pt(0, 0), geospanner.Pt(0, 1), geospanner.Pt(1, 2),
		geospanner.Pt(2, 2), geospanner.Pt(3, 1), geospanner.Pt(3, 0),
	}
	g := geospanner.BuildUDG(pts, 1.5)
	g.RemoveEdge(0, 5)

	if _, err := geospanner.RouteGreedy(g, 5, 0); err != nil {
		fmt.Println("greedy fails at the void")
	}
	path, err := geospanner.RouteGFG(g, 5, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("face routing delivers:", path)
	// Output:
	// greedy fails at the void
	// face routing delivers: [5 4 3 2 1 0]
}

// ExampleBuild runs the full distributed pipeline through the
// options-first API; with no options the call behaves exactly as before
// the options redesign.
func ExampleBuild() {
	inst, err := geospanner.GenerateInstance(42, 60, 200, 60)
	if err != nil {
		log.Fatal(err)
	}
	res, err := geospanner.Build(inst.UDG, inst.Radius)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("planar:", res.LDelICDS.IsPlanarEmbedding())
	fmt.Println("messages accounted:", res.MsgsLDel.Total() > 0)
	// Output:
	// planar: true
	// messages accounted: true
}

// ExampleWithMaxRounds bounds the round budget; a run that cannot finish
// in time fails with a *QuiescenceError naming the stuck nodes instead of
// spinning to the default budget.
func ExampleWithMaxRounds() {
	inst, err := geospanner.GenerateInstance(42, 60, 200, 60)
	if err != nil {
		log.Fatal(err)
	}
	_, err = geospanner.Build(inst.UDG, inst.Radius, geospanner.WithMaxRounds(1))
	fmt.Println("not quiescent:", errors.Is(err, geospanner.ErrNotQuiescent))
	var qe *geospanner.QuiescenceError
	if errors.As(err, &qe) {
		fmt.Println("diagnosed after rounds:", qe.Rounds)
	}
	// Output:
	// not quiescent: true
	// diagnosed after rounds: 1
}

// ExampleWithTracer observes a build through the rollup sink: per-stage
// round counts, message totals, and state transitions, at zero cost to
// the run itself (a traced build is bit-identical to an untraced one).
func ExampleWithTracer() {
	inst, err := geospanner.GenerateInstance(42, 60, 200, 60)
	if err != nil {
		log.Fatal(err)
	}
	m := geospanner.NewMetricsTracer()
	if _, err := geospanner.Build(inst.UDG, inst.Radius, geospanner.WithTracer(m)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("stages:", m.Stages())
	s := m.Stage("cluster")
	fmt.Println("cluster traffic observed:", s.Sent > 0 && s.Delivered >= s.Sent)
	// Output:
	// stages: [cluster connector ldel]
	// cluster traffic observed: true
}

// ExampleWithReliability builds on a lossy channel with the
// ack/retransmission shim: the output graphs are bit-identical to the
// lossless run even though one in five deliveries is dropped.
func ExampleWithReliability() {
	inst, err := geospanner.GenerateInstance(42, 60, 200, 60)
	if err != nil {
		log.Fatal(err)
	}
	plain, err := geospanner.Build(inst.UDG, inst.Radius)
	if err != nil {
		log.Fatal(err)
	}
	lossy, err := geospanner.Build(inst.UDG.Clone(), inst.Radius,
		geospanner.WithReliability(geospanner.ReliableConfig{}),
		geospanner.WithFaults(geospanner.Bernoulli(99, 0.2)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same topology:", lossy.LDelICDSPrime.Equal(plain.LDelICDSPrime))
	fmt.Println("retransmissions needed:", lossy.Reliable.Retransmissions > 0)
	// Output:
	// same topology: true
	// retransmissions needed: true
}

// ExampleBuildMany builds a batch of instances on a worker pool; results
// are bit-identical for any WithWorkers value.
func ExampleBuildMany() {
	var insts []*geospanner.Instance
	for seed := int64(1); seed <= 3; seed++ {
		inst, err := geospanner.GenerateInstance(seed, 40, 200, 60)
		if err != nil {
			log.Fatal(err)
		}
		insts = append(insts, inst)
	}
	results, err := geospanner.BuildMany(insts, geospanner.WithWorkers(2))
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		fmt.Printf("instance %d planar: %v\n", i, res.LDelICDS.IsPlanarEmbedding())
	}
	// Output:
	// instance 0 planar: true
	// instance 1 planar: true
	// instance 2 planar: true
}

// ExampleWithShards runs one build on four shards of the simulation
// kernel with a bounded worker pool; the output is bit-identical to the
// default one-shard build for any shard count or parallelism.
func ExampleWithShards() {
	inst, err := geospanner.GenerateInstance(5, 80, 200, 60)
	if err != nil {
		log.Fatal(err)
	}
	seq, err := geospanner.Build(inst.UDG, inst.Radius)
	if err != nil {
		log.Fatal(err)
	}
	sharded, err := geospanner.Build(inst.UDG, inst.Radius,
		geospanner.WithShards(4), geospanner.WithParallelism(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("backbones identical:", sharded.LDelICDS.Equal(seq.LDelICDS))
	fmt.Println("same total messages:", sharded.MsgsLDel.Total() == seq.MsgsLDel.Total())
	// Output:
	// backbones identical: true
	// same total messages: true
}

// ExampleNewMaintained repairs the clustering locally when nodes fail.
func ExampleNewMaintained() {
	pts := []geospanner.Point{geospanner.Pt(0, 0), geospanner.Pt(0.5, 0)}
	m := geospanner.NewMaintained(pts, 0.6)
	fmt.Println("node 0 is dominator:", m.Status(0).String() == "dominator")
	changed, err := m.Fail(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("promotions after failure:", changed)
	fmt.Println("invariants hold:", m.CheckInvariants() == nil)
	// Output:
	// node 0 is dominator: true
	// promotions after failure: [1]
	// invariants hold: true
}
