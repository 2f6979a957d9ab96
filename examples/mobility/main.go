// Mobility: nodes move under the random-waypoint model while a topology
// server keeps the backbone current. Each node announces its position
// every few steps, staggered by ID, and each step's announcements are one
// epoch of move events. The server re-runs only the elections those moves
// touch (a witness patch, bit-identical to a rebuild) and recomputes the
// structures only when a batch reaches too much of the network — the
// paper's point that the backbone is easy to maintain when nodes move
// around.
//
//	go run ./examples/mobility
package main

import (
	"fmt"
	"log"

	"geospanner"
	"geospanner/internal/mobility"
)

func main() {
	const (
		n      = 300
		region = 600.0
		radius = 60.0
		speed  = 2.0 // distance units per time step
		beacon = 150 // steps between a node's position announcements
		steps  = 40
	)
	inst, err := geospanner.GenerateInstance(11, n, region, radius)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := geospanner.NewServer(inst.Points, radius)
	if err != nil {
		log.Fatal(err)
	}
	ep := srv.Current()
	fmt.Printf("t=0: backbone built, %d of %d UDG edges kept\n", ep.Backbone.NumEdges(), ep.UDG.NumEdges())

	model := mobility.NewModel(23, inst.Points, region, speed)
	for t := 1; t <= steps; t++ {
		var batch []geospanner.TopologyEvent
		for v, p := range model.Step(1) {
			if (t+v)%beacon == 0 {
				batch = append(batch, geospanner.NewMove(v, p))
			}
		}
		if ep, err = srv.Apply(batch); err != nil {
			log.Fatal(err)
		}
		if t%10 == 0 {
			topo := ep.Topology()
			fmt.Printf("t=%d: epoch %d, %d moves [%s]: backbone %d edges over %d nodes, %d component(s)\n",
				t, ep.Seq, len(batch), ep.Stats.Mode(), topo.BackboneEdges, topo.BackboneNodes, topo.Components)
		}
	}

	st := srv.Stats()
	fmt.Printf("\n%d steps at speed %.0f: %d moves in %d epochs, %d patched in place, %d recomputed\n",
		steps, speed, st.Applied, st.Epochs, st.PatchedEpochs, st.Recomputes)
	path, seq, err := srv.Route(0, n-1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("route 0 -> %d on epoch %d: %d hops over the maintained backbone\n", n-1, seq, len(path)-1)
}
