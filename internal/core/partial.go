// Graceful degradation: the partition-aware build mode behind
// WithPartialResults / WithDeadline.
//
// A classic Build is all-or-nothing: one crashed node that splits the unit
// disk graph wedges a stage, the round budget runs out, and the caller
// gets a QuiescenceError — discarding the backbone every surviving
// component had already computed. But the paper's constructions are
// localized: each phase depends only on k-hop neighborhoods, so a
// connected component that cannot hear the rest of the network can run the
// entire cluster/connector/LDel pipeline to completion on its own and its
// output is exactly what the global protocol would have produced there.
//
// buildPartial exploits that. It reads the fault model's crash schedule
// (sim.CrashScheduler) to learn which nodes are dead, computes the
// connected components of the live unit disk graph, and runs the full
// pipeline independently on each component — extracted as a remapped
// subnetwork so isolated/dead nodes cost nothing and per-node message
// accounting stays exact, with the caller's fault model translated back to
// global IDs (sim.RemapFaults) so link-loss patterns stay in force. The
// per-component results merge into one partial Result over the original
// node set, and a health.Report records everything that did not happen:
// dead nodes, uncovered nodes, stuck stages with self-diagnoses, and the
// Reliable shim's give-up ledger.
//
// Determinism: components are processed in order of smallest member, every
// merge step iterates sorted structures, and nothing depends on scheduling
// — so repeated runs (and any BuildMany worker count) produce bit-identical
// partial results. The one escape hatch is a wall-clock deadline, which by
// nature cuts the run at a speed-dependent point.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"geospanner/internal/cluster"
	"geospanner/internal/connector"
	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/health"
	"geospanner/internal/ldel"
	"geospanner/internal/obs"
	"geospanner/internal/sim"
)

// PartialStage is the stage label of partition/component trace events.
const PartialStage = "partial"

// stageNotAttempted marks components the build never reached (deadline or
// cancellation) in their health record.
const stageNotAttempted = "not-attempted"

// buildPartial is the partition-aware pipeline behind WithPartialResults.
func buildPartial(g *graph.Graph, radius float64, cfg BuildConfig, ctx context.Context) (*Result, error) {
	n := g.N()
	crashes := sim.CrashRounds(cfg.Faults)
	live := make([]bool, n)
	liveSet := make(map[int]bool, n)
	var dead []int
	for v := 0; v < n; v++ {
		if _, crashed := crashes[v]; crashed {
			dead = append(dead, v)
			continue
		}
		live[v] = true
		liveSet[v] = true
	}

	// Live components: dead nodes are isolated in the live subgraph and
	// surface as singletons — drop those, keep genuine live singletons.
	var comps [][]int
	for _, comp := range g.Subgraph(liveSet).Components() {
		if len(comp) == 1 && !live[comp[0]] {
			continue
		}
		comps = append(comps, comp)
	}

	res := &Result{
		UDG:    g,
		Radius: radius,
		Cluster: &cluster.Result{
			Status:           make([]cluster.Status, n),
			DominatorsOf:     make([][]int, n),
			TwoHopDominators: make([][]int, n),
		},
		Conn: &connector.Result{
			InBackbone: make([]bool, n),
			CDS:        graph.New(g.Points()),
			CDSPrime:   graph.New(g.Points()),
			ICDS:       graph.New(g.Points()),
			ICDSPrime:  graph.New(g.Points()),
		},
		LDelICDS: graph.New(g.Points()),
	}
	res.Conn.Cluster = res.Cluster
	report := &health.Report{Mode: health.ModePartial, DeadNodes: dead}
	res.Health = report

	if cfg.Tracer != nil {
		cfg.Tracer.Emit(obs.Event{Kind: obs.KindPartition, Stage: PartialStage,
			From: obs.NoNode, To: obs.NoNode, N: len(comps), Sent: len(dead)})
	}

	res.MsgsCDS = newMessageStats(n)
	// Every live node beacons its ID and position once at time zero,
	// before any partition can matter.
	var liveNodes []int
	for v := 0; v < n; v++ {
		if live[v] {
			liveNodes = append(liveNodes, v)
		}
	}
	res.MsgsCDS.addUniformNodes(liveNodes, 1, MsgTypeBeacon)

	// announced collects members of components whose clustering finished —
	// the nodes that send the role announcement inducing ICDS/ICDS'.
	var announced []int
	// ldelNets defers LDel message accounting until MsgsICDS is cloned.
	type mappedNet struct {
		net *sim.Network
		ids []int
	}
	var ldelNets []mappedNet

	canceled := false
	for _, members := range comps {
		rec := health.Component{Nodes: members}
		if canceled || (ctx != nil && ctx.Err() != nil) {
			if !canceled {
				canceled = true
				report.Canceled = true
				report.CancelReason = ctx.Err().Error()
			}
			rec.FailedStage = stageNotAttempted
			rec.Err = report.CancelReason
			report.Components = append(report.Components, rec)
			continue
		}

		sub := extractComponent(g, members)
		opts := cfg.componentSimOptions(ctx, members)
		maxRounds := cfg.MaxRounds

		// account folds one stage's network — success or failure — into
		// the per-stage message stats, round counts, reliable counters,
		// and the give-up ledger.
		account := func(net *sim.Network, stage string, msgs *MessageStats) {
			if net == nil {
				return
			}
			msgs.addNetworkMapped(net, members)
			rec.Rounds += net.Rounds()
			res.Reliable.Add(sim.ReliableStatsOf(net))
			for id, rs := range net.ReliableNodeStats() {
				if rs.GaveUp > 0 {
					report.GiveUps = append(report.GiveUps,
						health.GiveUp{Stage: stage, Node: members[id], Slots: rs.GaveUp})
				}
			}
		}
		// fail records a stage failure: the component's record, the stuck
		// nodes with their self-diagnoses, and cancellation state.
		fail := func(stage string, err error, net *sim.Network) {
			rec.FailedStage = stage
			rec.Err = err.Error()
			var qe *sim.QuiescenceError
			if errors.As(err, &qe) {
				for _, id := range qe.NotDone {
					report.Stuck = append(report.Stuck,
						health.Stuck{Stage: stage, Node: members[id], Reason: qe.Reasons[id]})
				}
			} else if net != nil {
				for _, id := range net.NotDone() {
					report.Stuck = append(report.Stuck, health.Stuck{Stage: stage, Node: members[id]})
				}
			}
			if errors.Is(err, sim.ErrCanceled) {
				canceled = true
				report.Canceled = true
				report.CancelReason = err.Error()
			}
		}

		cl, clNet, err := cluster.Run(sub, maxRounds, opts...)
		account(clNet, cluster.Stage, &res.MsgsCDS)
		if err != nil {
			fail(cluster.Stage, err, clNet)
			report.Components = append(report.Components, rec)
			emitComponent(cfg.Tracer, &rec)
			continue
		}
		res.Rounds.Cluster += clNet.Rounds()
		mergeCluster(res.Cluster, cl, members)
		announced = append(announced, members...)

		conn, connNet, err := connector.Run(sub, cl, maxRounds, opts...)
		account(connNet, connector.Stage, &res.MsgsCDS)
		if err != nil {
			fail(connector.Stage, err, connNet)
			report.Components = append(report.Components, rec)
			emitComponent(cfg.Tracer, &rec)
			continue
		}
		res.Rounds.Connector += connNet.Rounds()
		mergeConnector(res.Conn, conn, members)

		ld, ldNet, err := ldel.Run(conn.ICDS, conn.InBackbone, radius, maxRounds, opts...)
		if ldNet != nil {
			ldelNets = append(ldelNets, mappedNet{net: ldNet, ids: members})
			rec.Rounds += ldNet.Rounds()
			res.Reliable.Add(sim.ReliableStatsOf(ldNet))
			for id, rs := range ldNet.ReliableNodeStats() {
				if rs.GaveUp > 0 {
					report.GiveUps = append(report.GiveUps,
						health.GiveUp{Stage: ldel.Stage, Node: members[id], Slots: rs.GaveUp})
				}
			}
		}
		if err != nil {
			fail(ldel.Stage, err, ldNet)
			report.Components = append(report.Components, rec)
			emitComponent(cfg.Tracer, &rec)
			continue
		}
		res.Rounds.LDel += ldNet.Rounds()
		addEdgesMapped(res.LDelICDS, ld.PLDel, members)
		for _, t := range ld.Triangles {
			res.Triangles = append(res.Triangles,
				ldel.TriKey{members[t[0]], members[t[1]], members[t[2]]})
		}

		rec.Complete = true
		report.Components = append(report.Components, rec)
		emitComponent(cfg.Tracer, &rec)
	}

	// Global orderings: per-component lists are sorted, but component node
	// IDs interleave, so cross-component appends need one final sort.
	sort.Ints(res.Cluster.Dominators)
	sort.Ints(res.Conn.Connectors)
	sort.Ints(res.Conn.Backbone)
	sort.Slice(res.Triangles, func(i, j int) bool {
		a, b := res.Triangles[i], res.Triangles[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})

	// LDel(ICDS') = LDel(ICDS) plus every dominatee→dominator edge, as in
	// a full build — restricted to components whose clustering finished.
	res.LDelICDSPrime = res.LDelICDS.Clone()
	for v := 0; v < n; v++ {
		for _, u := range res.Cluster.DominatorsOf[v] {
			res.LDelICDSPrime.AddEdge(v, u)
		}
	}

	// Uncovered: live nodes whose component never finished clustering
	// (their status is still the zero value, White).
	for v := 0; v < n; v++ {
		if live[v] && res.Cluster.Status[v] == cluster.White {
			report.UncoveredNodes = append(report.UncoveredNodes, v)
		}
	}

	sort.Ints(announced)
	res.MsgsICDS = res.MsgsCDS.Clone()
	res.MsgsICDS.addUniformNodes(announced, 1, MsgTypeRoleAnnounce)
	res.MsgsLDel = res.MsgsICDS.Clone()
	for _, mn := range ldelNets {
		res.MsgsLDel.addNetworkMapped(mn.net, mn.ids)
	}
	return res, nil
}

// componentSimOptions assembles the simulator option list of one
// component's stages: the fault model translated back to global IDs, the
// Reliable shim, the tracer with events remapped to global node IDs, and
// the cancellation context.
func (c *BuildConfig) componentSimOptions(ctx context.Context, members []int) []sim.Option {
	var opts []sim.Option
	if c.Faults != nil {
		opts = append(opts, sim.WithFaults(sim.RemapFaults(c.Faults, members)))
	}
	if c.Reliability != nil {
		opts = append(opts, sim.WithReliability(*c.Reliability))
	}
	if c.Tracer != nil {
		opts = append(opts, sim.WithTracer(remapTracer{inner: c.Tracer, ids: members}))
	}
	if ctx != nil {
		opts = append(opts, sim.WithContext(ctx))
	}
	if c.Shards > 0 {
		opts = append(opts, sim.WithShards(c.Shards))
		if c.Parallel != 0 {
			opts = append(opts, sim.WithParallelism(c.Parallel))
		}
	}
	return opts
}

// remapTracer translates the node IDs of component-local trace events back
// to global IDs before forwarding, so a partial build's merged trace reads
// in the coordinates of the original network.
type remapTracer struct {
	inner obs.Tracer
	ids   []int
}

// Emit implements obs.Tracer.
func (t remapTracer) Emit(e obs.Event) {
	// Executor events carry a shard index in From, not a node ID.
	if obs.ExecutorKind(e.Kind) {
		t.inner.Emit(e)
		return
	}
	if e.From >= 0 && e.From < len(t.ids) {
		e.From = t.ids[e.From]
	}
	if e.To >= 0 && e.To < len(t.ids) {
		e.To = t.ids[e.To]
	}
	t.inner.Emit(e)
}

// emitComponent closes one component in the trace.
func emitComponent(t obs.Tracer, rec *health.Component) {
	if t == nil {
		return
	}
	note := "complete"
	if !rec.Complete {
		note = rec.FailedStage
	}
	t.Emit(obs.Event{Kind: obs.KindComponent, Stage: PartialStage, Round: rec.Rounds,
		From: obs.NoNode, To: obs.NoNode, N: len(rec.Nodes), Note: note})
}

// extractComponent builds the component's communication graph under local
// IDs 0..len(members)-1. members is sorted, so the local order equals the
// global order and every ID-ordered protocol (lowest-ID MIS, smallest-ID
// connector election) computes on the component exactly what the global
// protocol would.
func extractComponent(g *graph.Graph, members []int) *graph.Graph {
	pts := make([]geom.Point, len(members))
	local := make(map[int]int, len(members))
	for i, v := range members {
		pts[i] = g.Point(v)
		local[v] = i
	}
	sub := graph.New(pts)
	for i, v := range members {
		for _, u := range g.Neighbors(v) {
			if j, ok := local[u]; ok && i < j {
				sub.AddEdge(i, j)
			}
		}
	}
	return sub
}

// remapIDs translates a sorted list of local IDs to global IDs; the map is
// monotone, so the output stays sorted.
func remapIDs(a, ids []int) []int {
	if len(a) == 0 {
		return nil
	}
	out := make([]int, len(a))
	for i, v := range a {
		out[i] = ids[v]
	}
	return out
}

// mergeCluster folds one component's clustering into the global result.
func mergeCluster(dst, src *cluster.Result, ids []int) {
	for i, v := range ids {
		dst.Status[v] = src.Status[i]
		dst.DominatorsOf[v] = remapIDs(src.DominatorsOf[i], ids)
		dst.TwoHopDominators[v] = remapIDs(src.TwoHopDominators[i], ids)
	}
	for _, d := range src.Dominators {
		dst.Dominators = append(dst.Dominators, ids[d])
	}
}

// mergeConnector folds one component's backbone into the global result.
func mergeConnector(dst, src *connector.Result, ids []int) {
	for _, c := range src.Connectors {
		dst.Connectors = append(dst.Connectors, ids[c])
	}
	for _, b := range src.Backbone {
		dst.Backbone = append(dst.Backbone, ids[b])
		dst.InBackbone[ids[b]] = true
	}
	addEdgesMapped(dst.CDS, src.CDS, ids)
	addEdgesMapped(dst.CDSPrime, src.CDSPrime, ids)
	addEdgesMapped(dst.ICDS, src.ICDS, ids)
	addEdgesMapped(dst.ICDSPrime, src.ICDSPrime, ids)
}

// addEdgesMapped adds every edge of src to dst under the given local→global
// translation.
func addEdgesMapped(dst, src *graph.Graph, ids []int) {
	for u := 0; u < src.N(); u++ {
		for _, v := range src.Neighbors(u) {
			if u < v {
				dst.AddEdge(ids[u], ids[v])
			}
		}
	}
}

// VerifyPartial checks the paper's invariants on every complete component
// of a partial Result — the degraded-mode correctness contract:
//
//   - dominators form an independent set of the component's UDG, and every
//     member is a dominator or adjacent to one (domination);
//   - the CDS restricted to the component connects its backbone, and its
//     edges are UDG edges (CDS connectivity);
//   - LDel(ICDS) restricted to the component is a planar embedding, a
//     subgraph of the component's UDG, and connects its backbone;
//   - LDel(ICDS') restricted to the component spans every member.
//
// It also checks the global separation property: no produced edge touches
// a dead node or crosses components. A nil error means every check passed.
func VerifyPartial(res *Result) error {
	if res.Health == nil {
		return errors.New("core: VerifyPartial needs a partial result (WithPartialResults)")
	}
	g := res.UDG
	n := g.N()
	compOf := make([]int, n)
	for v := range compOf {
		compOf[v] = -1
	}
	for ci, c := range res.Health.Components {
		for _, v := range c.Nodes {
			compOf[v] = ci
		}
	}

	// Separation: every edge of every produced structure stays inside one
	// live component.
	structures := map[string]*graph.Graph{
		"CDS": res.Conn.CDS, "CDSPrime": res.Conn.CDSPrime,
		"ICDS": res.Conn.ICDS, "ICDSPrime": res.Conn.ICDSPrime,
		"LDelICDS": res.LDelICDS, "LDelICDSPrime": res.LDelICDSPrime,
	}
	for _, name := range []string{"CDS", "CDSPrime", "ICDS", "ICDSPrime", "LDelICDS", "LDelICDSPrime"} {
		for _, e := range structures[name].Edges() {
			if compOf[e.U] < 0 || compOf[e.U] != compOf[e.V] {
				return fmt.Errorf("core: %s edge %v leaves its live component", name, e)
			}
			if !g.HasEdge(e.U, e.V) {
				return fmt.Errorf("core: %s edge %v is not a UDG edge", name, e)
			}
		}
	}

	for ci, c := range res.Health.Components {
		if !c.Complete {
			continue
		}
		inComp := make(map[int]bool, len(c.Nodes))
		for _, v := range c.Nodes {
			inComp[v] = true
		}
		var backbone []int
		for _, v := range c.Nodes {
			if res.Conn.InBackbone[v] {
				backbone = append(backbone, v)
			}
		}
		for _, v := range c.Nodes {
			switch res.Cluster.Status[v] {
			case cluster.Dominator:
				for _, u := range g.Neighbors(v) {
					if inComp[u] && res.Cluster.Status[u] == cluster.Dominator {
						return fmt.Errorf("core: component %d: adjacent dominators %d, %d", ci, v, u)
					}
				}
			case cluster.Dominatee:
				covered := false
				for _, u := range res.Cluster.DominatorsOf[v] {
					if inComp[u] && g.HasEdge(v, u) && res.Cluster.Status[u] == cluster.Dominator {
						covered = true
						break
					}
				}
				if !covered {
					return fmt.Errorf("core: component %d: node %d uncovered", ci, v)
				}
			default:
				return fmt.Errorf("core: component %d: node %d still white in a complete component", ci, v)
			}
		}
		if !res.Conn.CDS.SubsetConnected(backbone) {
			return fmt.Errorf("core: component %d: CDS does not connect its backbone", ci)
		}
		if !res.LDelICDS.SubsetConnected(backbone) {
			return fmt.Errorf("core: component %d: LDel(ICDS) does not connect its backbone", ci)
		}
		if sub := res.LDelICDS.Subgraph(inComp); !sub.IsPlanarEmbedding() {
			return fmt.Errorf("core: component %d: LDel(ICDS) is not a planar embedding", ci)
		}
		if !res.LDelICDSPrime.SubsetConnected(c.Nodes) {
			return fmt.Errorf("core: component %d: LDel(ICDS') does not span the component", ci)
		}
	}
	return nil
}
