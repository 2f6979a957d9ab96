package core

import (
	"errors"
	"testing"

	"geospanner/internal/cluster"
	"geospanner/internal/geom"
	"geospanner/internal/sim"
	"geospanner/internal/udg"
)

// linkCut is a fault model that loses every transmission from -> to.
type linkCut struct{ from, to int }

func (c linkCut) Copies(round, from, to, seq int, m sim.Message) int {
	if from == c.from && to == c.to {
		return 0
	}
	return 1
}

// TestClusteringDetectsMessageLoss: the protocols assume reliable local
// broadcast (as the paper does). With a lossy link the clustering protocol
// must not silently mis-cluster — the simulator detects the resulting
// deadlock (a node stays white forever) and reports non-quiescence.
func TestClusteringDetectsMessageLoss(t *testing.T) {
	// Path 0-1-2: node 1 never hears IamDominator from 0, so it waits for
	// node 0 (its smallest white neighbor) indefinitely.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	g := udg.Build(pts, 1)
	net := sim.NewNetwork(g, func(id int) sim.Protocol { return cluster.NewProtocol() },
		sim.WithFaults(linkCut{from: 0, to: 1}))
	_, err := net.Run(40)
	if !errors.Is(err, sim.ErrNotQuiescent) {
		t.Fatalf("err = %v, want ErrNotQuiescent (white node undetected)", err)
	}
}

// TestRebuildAfterNodeFailure: killing arbitrary nodes and rebuilding from
// scratch restores every pipeline guarantee as long as the survivor UDG is
// connected — the paper's maintenance story.
func TestRebuildAfterNodeFailure(t *testing.T) {
	inst, err := udg.ConnectedInstance(5, 90, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Remove every 7th node.
	var pts []geom.Point
	for i, p := range inst.Points {
		if i%7 != 0 {
			pts = append(pts, p)
		}
	}
	g := udg.Build(pts, inst.Radius)
	if !g.Connected() {
		t.Skip("survivor graph disconnected for this seed")
	}
	res, err := BuildCentralized(g, inst.Radius)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LDelICDS.IsPlanarEmbedding() {
		t.Fatal("rebuilt backbone not planar")
	}
	if !res.LDelICDSPrime.Connected() {
		t.Fatal("rebuilt backbone does not span survivors")
	}
}

// TestBackboneSurvivesConnectorLoss: the redundancy the paper claims — for
// most single connector failures the remaining CDS still connects the
// dominators of the failed node's neighborhood through alternate paths.
// We quantify rather than assert universally: across instances, removing
// one connector must leave the backbone connected in the vast majority of
// cases.
func TestBackboneSurvivesConnectorLoss(t *testing.T) {
	var trials, connected int
	for seed := int64(0); seed < 10; seed++ {
		inst, err := udg.ConnectedInstance(seed, 80, 200, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := BuildCentralized(inst.UDG, inst.Radius)
		if err != nil {
			t.Fatal(err)
		}
		for _, victim := range res.Conn.Connectors {
			trials++
			// Remove the victim from the CDS and check the rest.
			var rest []int
			for _, v := range res.Conn.Backbone {
				if v != victim {
					rest = append(rest, v)
				}
			}
			survivor := res.Conn.CDS.Clone()
			for _, u := range res.Conn.CDS.Neighbors(victim) {
				survivor.RemoveEdge(victim, u)
			}
			if survivor.SubsetConnected(rest) {
				connected++
			}
		}
	}
	if trials == 0 {
		t.Fatal("no connectors found")
	}
	frac := float64(connected) / float64(trials)
	if frac < 0.80 {
		t.Fatalf("backbone survived only %.0f%% of single connector losses", 100*frac)
	}
	t.Logf("backbone survived %d/%d (%.0f%%) single connector losses", connected, trials, 100*frac)
}

// TestPipelineOnCollinearNetwork: all nodes on a line — the localized
// Delaunay has no triangles at all, so the backbone must fall back to its
// Gabriel edges and still span.
func TestPipelineOnCollinearNetwork(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 25; i++ {
		pts = append(pts, geom.Pt(float64(i)*0.8, 5))
	}
	g := udg.Build(pts, 1)
	if !g.Connected() {
		t.Fatal("line graph should be connected")
	}
	res, err := BuildCentralized(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triangles) != 0 {
		t.Fatalf("collinear network produced triangles: %v", res.Triangles)
	}
	if !res.LDelICDSPrime.Connected() {
		t.Fatal("collinear backbone does not span")
	}
	if !res.LDelICDS.IsPlanarEmbedding() {
		t.Fatal("collinear backbone not planar")
	}
	dist, err := Build(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dist.LDelICDS.NumEdges() != res.LDelICDS.NumEdges() {
		t.Fatal("distributed/centralized disagree on collinear network")
	}
}

// TestPipelineOnGridNetwork: exact integer grid positions produce massive
// co-circular degeneracy; the exact predicates must keep every guarantee.
func TestPipelineOnGridNetwork(t *testing.T) {
	var pts []geom.Point
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	g := udg.Build(pts, 1.1)
	res, err := BuildCentralized(g, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LDelICDS.IsPlanarEmbedding() {
		t.Fatal("grid backbone not planar")
	}
	if !res.LDelICDSPrime.Connected() {
		t.Fatal("grid backbone does not span")
	}
}

// TestPipelineTwoNodes: the smallest connected network.
func TestPipelineTwoNodes(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0)}
	g := udg.Build(pts, 1)
	res, err := Build(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cluster.Dominators) != 1 {
		t.Fatalf("dominators = %v", res.Cluster.Dominators)
	}
	if !res.LDelICDSPrime.HasEdge(0, 1) {
		t.Fatal("two-node network must keep its only edge")
	}
}
