package sim

import (
	"testing"

	"geospanner/internal/geom"
	"geospanner/internal/graph"
	"geospanner/internal/obs"
	"geospanner/internal/udg"
)

// pingProto broadcasts one ping at Init, counts echoes, and finishes
// after two rounds — enough traffic to exercise every hot emission path.
type pingProto struct {
	id    int
	round int
	heard int
}

type pingMsg struct{ Origin int }

func (pingMsg) Type() string { return "ping" }

func (p *pingProto) Init(ctx *Context) {
	ctx.Broadcast(pingMsg{Origin: p.id})
	ctx.EmitState("pinged")
}
func (p *pingProto) Handle(ctx *Context, from int, m Message) { p.heard++ }
func (p *pingProto) Tick(ctx *Context, round int)             { p.round = round }
func (p *pingProto) Done() bool                               { return p.round >= 2 }

func tracedRun(t *testing.T, g *graph.Graph, opts ...Option) (*Network, []obs.Event) {
	t.Helper()
	ring := obs.NewRing(1 << 16)
	opts = append([]Option{WithTracer(ring), WithStage("ping")}, opts...)
	net := NewNetwork(g, func(id int) Protocol { return &pingProto{id: id} }, opts...)
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	return net, ring.Events()
}

func countKinds(evs []obs.Event) map[obs.Kind]int {
	k := make(map[obs.Kind]int)
	for _, e := range evs {
		k[e.Kind]++
	}
	return k
}

func TestTraceEventStream(t *testing.T) {
	// A triangle: every broadcast reaches two receivers.
	g := graph.New([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)})
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)

	net, evs := tracedRun(t, g)
	kinds := countKinds(evs)

	if kinds[obs.KindStageStart] != 1 || kinds[obs.KindStageEnd] != 1 {
		t.Fatalf("stage events: %v", kinds)
	}
	if evs[0].Kind != obs.KindStageStart || evs[0].Stage != "ping" || evs[0].N != 3 {
		t.Fatalf("first event: %+v", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Kind != obs.KindStageEnd || last.Round != net.Rounds() || last.N != net.TotalSent() {
		t.Fatalf("last event: %+v (rounds=%d sent=%d)", last, net.Rounds(), net.TotalSent())
	}
	if last.WallNS <= 0 {
		t.Fatalf("stage_end missing wall time: %+v", last)
	}
	if kinds[obs.KindSend] != net.TotalSent() {
		t.Fatalf("send events = %d, want %d", kinds[obs.KindSend], net.TotalSent())
	}
	if kinds[obs.KindDeliver] != 6 { // 3 broadcasts × 2 receivers
		t.Fatalf("deliver events = %d, want 6", kinds[obs.KindDeliver])
	}
	if kinds[obs.KindState] != 3 {
		t.Fatalf("state events = %d, want 3", kinds[obs.KindState])
	}
	if kinds[obs.KindRound] != net.Rounds() {
		t.Fatalf("round events = %d, want %d", kinds[obs.KindRound], net.Rounds())
	}
}

func TestTraceDropsUnderFaults(t *testing.T) {
	inst, err := udg.ConnectedInstance(5, 20, 200, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, evs := tracedRun(t, inst.UDG, WithFaults(Bernoulli(1, 0.4)))
	kinds := countKinds(evs)
	if kinds[obs.KindDrop] == 0 {
		t.Fatal("no drop events under a 40% Bernoulli channel")
	}
}

func TestTraceRetransmitUnderReliability(t *testing.T) {
	inst, err := udg.ConnectedInstance(5, 20, 200, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(1 << 18)
	net := NewNetwork(inst.UDG, func(id int) Protocol { return &pingProto{id: id} },
		WithTracer(ring), WithStage("ping"),
		WithReliability(ReliableConfig{}), WithFaults(Bernoulli(3, 0.3)))
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	kinds := countKinds(ring.Events())
	if kinds[obs.KindRetransmit] == 0 {
		t.Fatal("no retransmit events under a lossy reliable run")
	}
	stats := ReliableStatsOf(net)
	var traced int
	for _, e := range ring.Events() {
		if e.Kind == obs.KindRetransmit {
			traced += e.N
		}
	}
	if traced != stats.Retransmissions {
		t.Fatalf("traced retransmissions %d != shim counter %d", traced, stats.Retransmissions)
	}
}

// TestTraceDoesNotPerturbRun pins the pay-for-use contract at the
// simulator level: the same instance run traced and untraced produces
// identical counters and round counts.
func TestTraceDoesNotPerturbRun(t *testing.T) {
	inst, err := udg.ConnectedInstance(9, 30, 200, 70, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewNetwork(inst.UDG, func(id int) Protocol { return &pingProto{id: id} })
	if _, err := plain.Run(0); err != nil {
		t.Fatal(err)
	}
	traced, _ := tracedRun(t, inst.UDG)
	if plain.Rounds() != traced.Rounds() || plain.TotalSent() != traced.TotalSent() {
		t.Fatalf("traced run diverged: rounds %d vs %d, sent %d vs %d",
			plain.Rounds(), traced.Rounds(), plain.TotalSent(), traced.TotalSent())
	}
	for id := 0; id < inst.UDG.N(); id++ {
		if plain.Sent(id) != traced.Sent(id) {
			t.Fatalf("node %d sent %d plain vs %d traced", id, plain.Sent(id), traced.Sent(id))
		}
	}
}
