package cluster

import (
	"reflect"
	"testing"

	"geospanner/internal/graph"
	"geospanner/internal/sim"
	"geospanner/internal/udg"
)

// asyncNode runs the clustering node under adversarial message delays on
// the round kernel: each delivered message is held for 0..maxDelay-1 extra
// rounds and only then handed to the node, so a message takes 1..maxDelay
// rounds end to end. The delay is a hash of (seed, receiver, sender,
// per-link arrival index). The kernel delivers each receiver's mail in a
// fixed order at any shard count, so a schedule is reproducible and the
// same on every shard count.
type asyncNode struct {
	node
	seed     uint64
	maxDelay int
	arrivals map[int]int // messages received so far, per sender
	held     []heldMsg
}

type heldMsg struct {
	wait int // Ticks left before the message is handed on
	from int
	msg  sim.Message
}

func (a *asyncNode) Handle(ctx *sim.Context, from int, m sim.Message) {
	k := a.arrivals[from]
	a.arrivals[from] = k + 1
	h := a.seed
	for _, x := range []int{ctx.ID(), from, k} {
		h = splitmix64(h ^ uint64(x))
	}
	a.held = append(a.held, heldMsg{wait: int(h % uint64(a.maxDelay)), from: from, msg: m})
}

// Tick hands the messages whose delay has run out to the node, in arrival
// order.
func (a *asyncNode) Tick(ctx *sim.Context, round int) {
	kept := a.held[:0]
	for _, h := range a.held {
		if h.wait == 0 {
			a.node.Handle(ctx, h.from, h.msg)
			continue
		}
		h.wait--
		kept = append(kept, h)
	}
	a.held = kept
}

// Done holds the run open while any message is held back.
func (a *asyncNode) Done() bool { return len(a.held) == 0 && a.node.Done() }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runAsync runs the clustering with every node wrapped in asyncNode and
// extracts the result as Run does.
func runAsync(t *testing.T, g *graph.Graph, seed int64, maxDelay int, opts ...sim.Option) (*Result, *sim.Network) {
	t.Helper()
	net := sim.NewNetwork(g, func(id int) sim.Protocol {
		return &asyncNode{seed: uint64(seed), maxDelay: maxDelay, arrivals: make(map[int]int)}
	}, opts...)
	if _, err := net.Run(0); err != nil {
		t.Fatalf("delay seed %d, max delay %d: %v", seed, maxDelay, err)
	}
	res := newResult(g.N())
	for id := 0; id < g.N(); id++ {
		res.fill(id, &net.Protocol(id).(*asyncNode).node)
	}
	return res, net
}

// resultDiff names the first field on which two clusterings differ, or
// returns "".
func resultDiff(a, b *Result) string {
	switch {
	case !reflect.DeepEqual(a.Status, b.Status):
		return "Status"
	case !reflect.DeepEqual(a.Dominators, b.Dominators):
		return "Dominators"
	case !reflect.DeepEqual(a.DominatorsOf, b.DominatorsOf):
		return "DominatorsOf"
	case !reflect.DeepEqual(a.TwoHopDominators, b.TwoHopDominators):
		return "TwoHopDominators"
	}
	return ""
}

// TestRunAsyncMatchesSync verifies the paper's remark that the clustering
// protocol also works asynchronously: under arbitrary (seeded) per-message
// delays the lowest-ID MIS protocol converges to exactly the clustering of
// the synchronous execution — the outcome is fixed by the causal
// structure, not by timing. Each schedule is also run on four shards,
// which must reproduce it round for round, and the schedules of one
// instance must differ, or the delays did nothing.
func TestRunAsyncMatchesSync(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		inst, err := udg.ConnectedInstance(seed, 60, 200, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := Centralized(inst.UDG)
		rounds := make(map[int]bool)
		for delaySeed := int64(0); delaySeed < 6; delaySeed++ {
			maxDelay := 1 + int(delaySeed)*3
			got, net := runAsync(t, inst.UDG, delaySeed, maxDelay)
			if f := resultDiff(got, want); f != "" {
				t.Fatalf("seed %d delay %d: %s differs from Centralized", seed, delaySeed, f)
			}
			sharded, snet := runAsync(t, inst.UDG, delaySeed, maxDelay, sim.WithShards(4))
			if f := resultDiff(sharded, got); f != "" {
				t.Fatalf("seed %d delay %d: %s differs on 4 shards", seed, delaySeed, f)
			}
			if snet.Rounds() != net.Rounds() {
				t.Fatalf("seed %d delay %d: 4 shards took %d rounds, one shard %d",
					seed, delaySeed, snet.Rounds(), net.Rounds())
			}
			rounds[net.Rounds()] = true
		}
		if len(rounds) < 2 {
			t.Fatalf("seed %d: every delay schedule took the same number of rounds", seed)
		}
	}
}

// TestAsyncDeterministicPerSeed: a delay schedule is a function of its
// seed, so re-running it repeats the run exactly.
func TestAsyncDeterministicPerSeed(t *testing.T) {
	inst, err := udg.ConnectedInstance(0, 60, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, a := runAsync(t, inst.UDG, 3, 7)
	_, b := runAsync(t, inst.UDG, 3, 7)
	if a.Rounds() != b.Rounds() || !reflect.DeepEqual(a.Trace(), b.Trace()) {
		t.Fatalf("same delay seed diverged: %d vs %d rounds", a.Rounds(), b.Rounds())
	}
}

// TestAsyncDelaysVaryWithSeed: at a fixed maximum delay the seed alone
// changes the schedule.
func TestAsyncDelaysVaryWithSeed(t *testing.T) {
	inst, err := udg.ConnectedInstance(0, 60, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	rounds := make(map[int]bool)
	for seed := int64(0); seed < 6; seed++ {
		_, net := runAsync(t, inst.UDG, seed, 10)
		rounds[net.Rounds()] = true
	}
	if len(rounds) < 2 {
		t.Fatal("all delay seeds took the same number of rounds; delays not randomized")
	}
}

// TestRunAsyncMessageBound: the constant per-node message bound holds under
// asynchrony as well.
func TestRunAsyncMessageBound(t *testing.T) {
	inst, err := udg.ConnectedInstance(9, 100, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, net := runAsync(t, inst.UDG, 4, 10)
	for id := 0; id < inst.UDG.N(); id++ {
		if net.Sent(id) > 6 {
			t.Fatalf("node %d sent %d messages under asynchrony", id, net.Sent(id))
		}
	}
}
