package sim

import (
	"errors"
	"reflect"
	"testing"

	"geospanner/internal/geom"
	"geospanner/internal/graph"
)

// floodMsg is a minimal flooding payload.
type floodMsg struct{ origin int }

func (floodMsg) Type() string { return "flood" }

// flooder rebroadcasts the first flood message it hears.
type flooder struct {
	id      int
	heard   bool
	started bool
	hops    int
	round   int
}

func (f *flooder) Init(ctx *Context) {
	if f.started {
		f.heard = true
		ctx.Broadcast(floodMsg{origin: ctx.ID()})
	}
}

func (f *flooder) Handle(ctx *Context, from int, m Message) {
	if _, ok := m.(floodMsg); !ok {
		return
	}
	if !f.heard {
		f.heard = true
		ctx.Broadcast(floodMsg{origin: ctx.ID()})
	}
}

func (f *flooder) Tick(ctx *Context, round int) { f.round = round }
func (f *flooder) Done() bool                   { return true }

func pathGraph(n int) *graph.Graph {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i), 0)
	}
	g := graph.New(pts)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestFloodReachesAllNodes(t *testing.T) {
	g := pathGraph(6)
	net := NewNetwork(g, func(id int) Protocol {
		return &flooder{id: id, started: id == 0}
	})
	rounds, err := net.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.N(); id++ {
		if !net.Protocol(id).(*flooder).heard {
			t.Fatalf("node %d never heard the flood", id)
		}
	}
	// A 6-node path needs 5 hops; delivery happens one round per hop,
	// plus one final quiescence round.
	if rounds < 5 {
		t.Fatalf("rounds = %d, want >= 5", rounds)
	}
	// Each node broadcasts exactly once.
	for id := 0; id < g.N(); id++ {
		if net.Sent(id) != 1 {
			t.Fatalf("node %d sent %d messages, want 1", id, net.Sent(id))
		}
	}
	if net.TotalSent() != 6 {
		t.Fatalf("TotalSent = %d, want 6", net.TotalSent())
	}
	if got := net.SentByType()["flood"]; got != 6 {
		t.Fatalf("flood count = %d, want 6", got)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() []int {
		g := pathGraph(8)
		net := NewNetwork(g, func(id int) Protocol {
			return &flooder{id: id, started: id == 3}
		})
		if _, err := net.Run(0); err != nil {
			t.Fatal(err)
		}
		return net.SentAll()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic runs: %v vs %v", a, b)
	}
}

// linkCut is a fault model that loses every transmission from -> to. It
// implements only Copies — no ShardFaults — so the kernel cannot split it
// across shards, and runs using it take the one-shard fallback.
type linkCut struct{ from, to int }

func (c linkCut) Copies(round, from, to, seq int, m Message) int {
	if from == c.from && to == c.to {
		return 0
	}
	return 1
}

func TestFaultModelCutsLink(t *testing.T) {
	g := pathGraph(3)
	// Drop everything node 1 sends to node 2: the flood from 0 stops at 1.
	net := NewNetwork(g, func(id int) Protocol {
		return &flooder{id: id, started: id == 0}
	}, WithFaults(linkCut{from: 1, to: 2}))
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if net.Protocol(2).(*flooder).heard {
		t.Fatal("node 2 heard the flood through a dropped link")
	}
	if !net.Protocol(1).(*flooder).heard {
		t.Fatal("node 1 should have heard the flood")
	}
}

// chatter never stops sending, so the network never goes quiescent.
type chatter struct{}

func (chatter) Init(ctx *Context)                        { ctx.Broadcast(floodMsg{}) }
func (chatter) Handle(ctx *Context, from int, m Message) {}
func (c chatter) Tick(ctx *Context, round int)           { ctx.Broadcast(floodMsg{}) }
func (chatter) Done() bool                               { return true }

func TestRunRoundBudget(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g, func(id int) Protocol { return chatter{} })
	_, err := net.Run(10)
	if !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("err = %v, want ErrNotQuiescent", err)
	}
	if net.Rounds() != 10 {
		t.Fatalf("Rounds = %d, want 10", net.Rounds())
	}
}

// notDone is quiet but reports unfinished business.
type notDone struct{}

func (notDone) Init(ctx *Context)                        {}
func (notDone) Handle(ctx *Context, from int, m Message) {}
func (notDone) Tick(ctx *Context, round int)             {}
func (notDone) Done() bool                               { return false }

func TestRunWaitsForDone(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g, func(id int) Protocol { return notDone{} })
	_, err := net.Run(7)
	if !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("err = %v, want ErrNotQuiescent", err)
	}
}

// orderRecorder records the order in which messages arrive.
type orderMsg struct{}

func (orderMsg) Type() string { return "order" }

type orderRecorder struct {
	sendFirst bool
	got       []int
}

func (o *orderRecorder) Init(ctx *Context) {
	if o.sendFirst {
		ctx.Broadcast(orderMsg{})
	}
}

func (o *orderRecorder) Handle(ctx *Context, from int, m Message) {
	o.got = append(o.got, from)
}
func (o *orderRecorder) Tick(ctx *Context, round int) {}
func (o *orderRecorder) Done() bool                   { return true }

func TestDeliveryOrderBySenderID(t *testing.T) {
	// Star: center 0 hears from 1..4 in exactly ID order, regardless of
	// construction order.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(-1, 0), geom.Pt(0, -1)}
	g := graph.New(pts)
	for i := 1; i < 5; i++ {
		g.AddEdge(0, i)
	}
	net := NewNetwork(g, func(id int) Protocol {
		return &orderRecorder{sendFirst: id != 0}
	})
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	got := net.Protocol(0).(*orderRecorder).got
	want := []int{1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order = %v, want %v", got, want)
	}
}

func TestContextAccessors(t *testing.T) {
	g := pathGraph(3)
	net := NewNetwork(g, func(id int) Protocol { return notDone{} })
	ctx := &net.ctxs[1]
	if ctx.ID() != 1 {
		t.Fatalf("ID = %d", ctx.ID())
	}
	if !ctx.Pos().Eq(geom.Pt(1, 0)) {
		t.Fatalf("Pos = %v", ctx.Pos())
	}
	nbrs := ctx.Neighbors()
	if !reflect.DeepEqual(nbrs, []int{0, 2}) {
		t.Fatalf("Neighbors = %v", nbrs)
	}
}

func TestTrace(t *testing.T) {
	g := pathGraph(5)
	net := NewNetwork(g, func(id int) Protocol {
		return &flooder{id: id, started: id == 0}
	})
	rounds, err := net.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	trace := net.Trace()
	if len(trace) != rounds {
		t.Fatalf("trace has %d rounds, run took %d", len(trace), rounds)
	}
	var totalDelivered int
	for i, rs := range trace {
		if rs.Round != i+1 {
			t.Fatalf("round numbering broken: %+v", rs)
		}
		totalDelivered += rs.Delivered
	}
	// Path graph: each broadcast reaches 1 or 2 neighbors; 5 broadcasts
	// reach a total of 2*4 = 8 directed deliveries.
	if totalDelivered != 8 {
		t.Fatalf("total deliveries = %d, want 8", totalDelivered)
	}
	// The final round delivers the last echo and sends nothing.
	if last := trace[len(trace)-1]; last.Sent != 0 {
		t.Fatalf("final round sent %d messages", last.Sent)
	}
	// Trace is a copy.
	trace[0].Delivered = 999
	if net.Trace()[0].Delivered == 999 {
		t.Fatal("Trace leaked internal state")
	}
}
