package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// gossipMsg carries a node's current best value.
type gossipMsg struct{ val int }

func (gossipMsg) Type() string { return "gossip" }

// gossiper runs k phases of max-gossip: each phase it broadcasts the
// largest value heard so far. Its per-phase log makes it maximally
// loss-sensitive — a single lost message anywhere changes some node's
// log — so log equality across runs is a bit-identity check.
type gossiper struct {
	k     int
	best  int
	phase int
	log   []int
}

func (g *gossiper) Init(ctx *Context) {
	g.best = ctx.ID()
	ctx.Broadcast(gossipMsg{val: g.best})
}

func (g *gossiper) Handle(ctx *Context, from int, m Message) {
	if mm, ok := m.(gossipMsg); ok && mm.val > g.best {
		g.best = mm.val
	}
}

func (g *gossiper) Tick(ctx *Context, round int) {
	if g.phase >= g.k {
		return
	}
	g.phase++
	g.log = append(g.log, g.best)
	if g.phase < g.k {
		ctx.Broadcast(gossipMsg{val: g.best})
	}
}

func (g *gossiper) Done() bool { return g.phase >= g.k }

// gossipLogs runs k-phase max-gossip on g under the given options and
// returns every node's per-phase log.
func gossipLogs(t *testing.T, n, k int, opts ...Option) ([][]int, *Network) {
	t.Helper()
	g := pathGraph(n)
	net := NewNetwork(g, func(id int) Protocol { return &gossiper{k: k} }, opts...)
	if _, err := net.Run(500); err != nil {
		t.Fatalf("run: %v", err)
	}
	logs := make([][]int, n)
	for id := 0; id < n; id++ {
		logs[id] = net.Protocol(id).(*gossiper).log
	}
	return logs, net
}

func TestReliableLosslessParity(t *testing.T) {
	const n, k = 8, 6
	plain, _ := gossipLogs(t, n, k)
	rel, net := gossipLogs(t, n, k, WithReliability(ReliableConfig{}))
	if !reflect.DeepEqual(plain, rel) {
		t.Fatalf("reliable lossless run diverged:\nplain    %v\nreliable %v", plain, rel)
	}
	stats := ReliableStatsOf(net)
	if stats.Retransmissions != 0 {
		t.Fatalf("lossless run retransmitted %d slots", stats.Retransmissions)
	}
	if stats.Duplicates != 0 {
		t.Fatalf("lossless run saw %d duplicates", stats.Duplicates)
	}
}

func TestReliableBitIdenticalUnderLoss(t *testing.T) {
	const n, k = 8, 6
	plain, _ := gossipLogs(t, n, k)
	models := map[string]func(seed int64) FaultModel{
		"bernoulli05": func(s int64) FaultModel { return Bernoulli(s, 0.05) },
		"bernoulli20": func(s int64) FaultModel { return Bernoulli(s, 0.20) },
		"bernoulli50": func(s int64) FaultModel { return Bernoulli(s, 0.50) },
		"gilbert":     func(s int64) FaultModel { return Gilbert(s, 0.15, 0.35, 0.9) },
		"duplicate":   func(s int64) FaultModel { return Duplicate(s, 0.3) },
		"lossy+dup": func(s int64) FaultModel {
			return Compose(Bernoulli(s, 0.2), Duplicate(s+1, 0.3))
		},
	}
	for name, mk := range models {
		for seed := int64(1); seed <= 3; seed++ {
			rel, net := gossipLogs(t, n, k,
				WithReliability(ReliableConfig{}), WithFaults(mk(seed)))
			if !reflect.DeepEqual(plain, rel) {
				t.Fatalf("%s seed %d: lossy reliable run diverged:\nplain %v\nlossy %v",
					name, seed, plain, rel)
			}
			if strings.HasPrefix(name, "bernoulli") {
				if stats := ReliableStatsOf(net); stats.Retransmissions == 0 {
					t.Errorf("%s seed %d: expected retransmissions under loss", name, seed)
				}
			}
		}
	}
}

func TestReliableDuplicateSuppression(t *testing.T) {
	const n, k = 6, 4
	plain, _ := gossipLogs(t, n, k)
	rel, net := gossipLogs(t, n, k,
		WithReliability(ReliableConfig{}), WithFaults(Duplicate(7, 0.5)))
	if !reflect.DeepEqual(plain, rel) {
		t.Fatalf("duplicated run diverged:\nplain %v\ndup   %v", plain, rel)
	}
	if stats := ReliableStatsOf(net); stats.Duplicates == 0 {
		t.Fatal("expected suppressed duplicates under Duplicate(0.5)")
	}
}

func TestReliableFlooderUnderLoss(t *testing.T) {
	g := pathGraph(10)
	net := NewNetwork(g, func(id int) Protocol {
		return &flooder{id: id, started: id == 0}
	}, WithReliability(ReliableConfig{}), WithFaults(Bernoulli(42, 0.3)))
	if _, err := net.Run(500); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.N(); id++ {
		if !net.Protocol(id).(*flooder).heard {
			t.Fatalf("node %d never heard the flood despite retransmissions", id)
		}
	}
}

func TestReliableCrashDiagnostics(t *testing.T) {
	g := pathGraph(5)
	net := NewNetwork(g, func(id int) Protocol { return &gossiper{k: 4} },
		WithReliability(ReliableConfig{}),
		WithFaults(CrashAt(map[int]int{2: 3})))
	_, err := net.Run(60)
	if !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("err = %v, want ErrNotQuiescent", err)
	}
	var qe *QuiescenceError
	if !errors.As(err, &qe) {
		t.Fatalf("err %T is not a *QuiescenceError", err)
	}
	if len(qe.NotDone) == 0 {
		t.Fatal("QuiescenceError names no stuck nodes")
	}
	// The crashed node's neighbors can never finish: their payloads go
	// unacknowledged.
	stuck := make(map[int]bool)
	for _, id := range qe.NotDone {
		stuck[id] = true
	}
	if !stuck[1] || !stuck[3] {
		t.Fatalf("NotDone = %v, want to include the crashed node's neighbors 1 and 3", qe.NotDone)
	}
	if len(qe.Reasons) == 0 {
		t.Fatal("QuiescenceError carries no self-diagnoses")
	}
	msg := err.Error()
	for _, want := range []string{"not done", "node "} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message %q lacks %q", msg, want)
		}
	}
}

func TestReliableGiveUpAfterMaxRetries(t *testing.T) {
	g := pathGraph(3)
	net := NewNetwork(g, func(id int) Protocol { return &gossiper{k: 3} },
		WithReliability(ReliableConfig{Timeout: 2, MaxRetries: 2}),
		WithFaults(linkCut{from: 1, to: 2})) // permanent one-way break
	_, err := net.Run(60)
	var qe *QuiescenceError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuiescenceError", err)
	}
	found := false
	for _, reason := range qe.Reasons {
		if strings.Contains(reason, "gave up") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no stuck node reported giving up; reasons: %v", qe.Reasons)
	}
	if stats := ReliableStatsOf(net); stats.GaveUp == 0 {
		t.Fatal("stats report no abandoned slots")
	}
}

func TestReliableDeterministicUnderLoss(t *testing.T) {
	run := func() ([][]int, ReliableStats) {
		logs, net := gossipLogs(t, 7, 5,
			WithReliability(ReliableConfig{}), WithFaults(Bernoulli(99, 0.25)))
		return logs, ReliableStatsOf(net)
	}
	logsA, statsA := run()
	logsB, statsB := run()
	if !reflect.DeepEqual(logsA, logsB) {
		t.Fatal("lossy reliable runs nondeterministic")
	}
	if statsA != statsB {
		t.Fatalf("shim stats nondeterministic: %+v vs %+v", statsA, statsB)
	}
}

// greeter counts greetings from each neighbor; done when all have
// greeted. It is purely event-driven — its Tick does nothing, so it never
// retransmits on its own.
type greeter struct {
	want int
	got  map[int]bool
}

type helloMsg struct{}

func (helloMsg) Type() string { return "hello" }

func (p *greeter) Init(ctx *Context) {
	p.want = len(ctx.Neighbors())
	p.got = make(map[int]bool)
	ctx.Broadcast(helloMsg{})
}

func (p *greeter) Handle(ctx *Context, from int, m Message) {
	if _, ok := m.(helloMsg); ok {
		p.got[from] = true
	}
}

func (p *greeter) Tick(ctx *Context, round int) {}

func (p *greeter) Done() bool { return len(p.got) == p.want }

// TestEventDrivenUnderReliableLoss: the Reliable shim alone makes an
// event-driven protocol loss-tolerant.
func TestEventDrivenUnderReliableLoss(t *testing.T) {
	g := pathGraph(6)
	net := NewNetwork(g, func(id int) Protocol { return &greeter{} },
		WithReliability(ReliableConfig{}), WithFaults(Bernoulli(5, 0.3)))
	if _, err := net.Run(500); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.N(); id++ {
		inner := net.Protocol(id).(*greeter)
		if !inner.Done() {
			t.Fatalf("node %d missing greetings: got %v want %d", id, inner.got, inner.want)
		}
	}
}
