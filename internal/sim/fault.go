package sim

// This file is the composable fault-model library for the simulator: every
// way a radio channel can mistreat a message — independent (Bernoulli)
// loss, bursty (Gilbert–Elliott) loss, node crashes, and duplication — as
// small deterministic values.
//
// Determinism: every model is a pure function of its seed and the delivery
// coordinates (round, from, to, seq), or — for the stateful Gilbert model —
// of the deterministic order in which the simulator consults it. Two runs
// with the same graph, protocols, and fault model see the exact same loss
// pattern, so lossy experiments are as reproducible as lossless ones.

// FaultModel decides the fate of each link-level transmission. Copies
// returns how many copies of the message arrive at the receiver: 0 means
// the transmission is lost, 1 is normal delivery, and larger values model
// duplication. Loss is per-receiver: one broadcast can reach some
// neighbors and not others, as with real radios.
//
// round is the delivery round; seq is the globally unique send sequence
// number of the transmission, so retransmissions of the same payload roll
// fresh fates.
type FaultModel interface {
	Copies(round, from, to, seq int, m Message) int
}

// FaultSharder is an optional FaultModel extension for multi-shard runs
// (WithShards): ShardFaults returns p independent instances, one per
// shard, that collectively reproduce the unsplit model's exact loss
// pattern when shard s consults instance s only for deliveries to its own
// receivers, in the per-receiver delivery order. Stateless models
// (Bernoulli, CrashAt, Duplicate) return the shared instance p times; the
// stateful Gilbert model returns fresh same-seed instances, which is
// sound because its per-link Markov chains are keyed by (from, to) and a
// directed link's receiver lives on exactly one shard, so each chain is
// consulted by one shard in the same order as on one shard. A model that
// does not implement FaultSharder, or whose ShardFaults returns nil, is
// unshardable (its internal state is invisible to the kernel); the run
// then executes on one shard, which consults the model unsplit.
type FaultSharder interface {
	ShardFaults(p int) []FaultModel
}

// shardFaultModels splits fm into p per-shard instances. A nil model
// shards trivially. The second result is false when the model (or any
// component of a composition) does not support sharding.
func shardFaultModels(fm FaultModel, p int) ([]FaultModel, bool) {
	if fm == nil {
		return make([]FaultModel, p), true
	}
	fs, ok := fm.(FaultSharder)
	if !ok {
		return nil, false
	}
	out := fs.ShardFaults(p)
	if out == nil {
		return nil, false
	}
	return out, true
}

// CrashScheduler is an optional FaultModel extension: a model that
// permanently silences nodes reports its schedule here (node -> first
// crashed round), which is how the degraded-mode build learns which nodes
// are dead and where the live network partitions. CrashAt implements it,
// and Compose aggregates over its stages.
type CrashScheduler interface {
	CrashSchedule() map[int]int
}

// CrashRounds extracts the crash schedule of a fault model: a fresh map
// from node ID to the round it crashes, or nil when the model is nil or
// schedules no crashes.
func CrashRounds(fm FaultModel) map[int]int {
	cs, ok := fm.(CrashScheduler)
	if !ok {
		return nil
	}
	sched := cs.CrashSchedule()
	if len(sched) == 0 {
		return nil
	}
	return sched
}

// splitmix64 is the SplitMix64 mixer: a bijective scramble whose output is
// uniform enough to use as one fresh 64-bit draw per distinct input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash01 maps the coordinates of one delivery attempt to a uniform float
// in [0, 1), independently per distinct (seed, round, from, to, seq).
func hash01(seed int64, round, from, to, seq int) float64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(round)<<1)
	h = splitmix64(h ^ uint64(from)<<17 ^ uint64(to))
	h = splitmix64(h ^ uint64(seq))
	return float64(h>>11) / float64(1<<53)
}

// bernoulli drops each delivery independently with probability p.
type bernoulli struct {
	seed int64
	p    float64
}

func (b bernoulli) Copies(round, from, to, seq int, m Message) int {
	if hash01(b.seed, round, from, to, seq) < b.p {
		return 0
	}
	return 1
}

// ShardFaults implements FaultSharder: the model is a pure function of
// the delivery coordinates, so every shard shares the one instance.
func (b bernoulli) ShardFaults(p int) []FaultModel {
	out := make([]FaultModel, p)
	for i := range out {
		out[i] = b
	}
	return out
}

// Bernoulli returns a fault model that loses each per-receiver delivery
// independently with probability p. The loss pattern is a deterministic
// function of the seed.
func Bernoulli(seed int64, p float64) FaultModel { return bernoulli{seed: seed, p: p} }

// gilbert is a two-state Gilbert–Elliott burst-loss channel per directed
// link: a link in the Good state delivers, a link in the Bad state drops
// with probability dropBad; the state advances once per delivery attempt.
type gilbert struct {
	seed      int64
	pEnterBad float64
	pExitBad  float64
	dropBad   float64
	state     map[[2]int]*gilbertLink
	// shards caches the per-shard instances handed out by ShardFaults, so
	// that per-link chain state persists across the stages of one build
	// exactly as the parent instance's state does on one shard.
	shards []FaultModel
}

type gilbertLink struct {
	bad bool
	rng uint64 // per-link splitmix64 stream
}

func (g *gilbert) next(l *gilbertLink) float64 {
	l.rng = splitmix64(l.rng)
	return float64(l.rng>>11) / float64(1<<53)
}

func (g *gilbert) Copies(round, from, to, seq int, m Message) int {
	k := [2]int{from, to}
	l := g.state[k]
	if l == nil {
		l = &gilbertLink{rng: splitmix64(uint64(g.seed) ^ uint64(from)<<32 ^ uint64(to))}
		g.state[k] = l
	}
	if l.bad {
		if g.next(l) < g.pExitBad {
			l.bad = false
		}
	} else {
		if g.next(l) < g.pEnterBad {
			l.bad = true
		}
	}
	if l.bad && g.next(l) < g.dropBad {
		return 0
	}
	return 1
}

// ShardFaults implements FaultSharder with same-seed per-shard instances.
// Each directed link's Markov chain is lazily seeded from (seed, from,
// to) alone, and the link is consulted only by the shard owning the
// receiver `to`, in the same per-receiver delivery order a one-shard run
// uses — so every chain replays the identical stream and the aggregate
// loss pattern is bit-identical for any p. The instances are cached on
// the parent: a multi-stage run (core.Build threads one fault model
// through cluster, connector, and LDel) keeps advancing the same chains
// across stages, exactly as the unsplit instance does on one shard. The
// kernel's partition is a function of the node count and p alone, and
// every stage of a build runs over the same nodes, so each chain stays in
// the instance of its receiver's shard from stage to stage; the
// components of a partial build run one at a time over disjoint links, so
// no chain is consulted under two partitions. One Gilbert value must
// therefore run under a consistent shard count — changing p mid-build
// would reset the chains.
func (g *gilbert) ShardFaults(p int) []FaultModel {
	if len(g.shards) != p {
		g.shards = make([]FaultModel, p)
		for i := range g.shards {
			g.shards[i] = Gilbert(g.seed, g.pEnterBad, g.pExitBad, g.dropBad)
		}
	}
	return g.shards
}

// Gilbert returns a bursty Gilbert–Elliott loss model: each directed link
// carries a two-state Markov chain (Good/Bad) advanced once per delivery
// attempt; a Bad link drops each delivery with probability dropBad. It is
// stateful, so one instance must not be shared across concurrently running
// networks; within one deterministic run it is fully reproducible.
func Gilbert(seed int64, pEnterBad, pExitBad, dropBad float64) FaultModel {
	return &gilbert{
		seed:      seed,
		pEnterBad: pEnterBad,
		pExitBad:  pExitBad,
		dropBad:   dropBad,
		state:     make(map[[2]int]*gilbertLink),
	}
}

// crashAt silences crashed nodes: from the given round on, nothing the
// node sends is delivered anywhere and nothing sent to it arrives.
type crashAt struct {
	at map[int]int
}

func (c crashAt) Copies(round, from, to, seq int, m Message) int {
	if r, ok := c.at[from]; ok && round >= r {
		return 0
	}
	if r, ok := c.at[to]; ok && round >= r {
		return 0
	}
	return 1
}

// ShardFaults implements FaultSharder: the schedule is read-only during a
// run, so every shard shares the one instance.
func (c crashAt) ShardFaults(p int) []FaultModel {
	out := make([]FaultModel, p)
	for i := range out {
		out[i] = c
	}
	return out
}

// CrashSchedule implements CrashScheduler.
func (c crashAt) CrashSchedule() map[int]int {
	cp := make(map[int]int, len(c.at))
	for k, v := range c.at {
		cp[k] = v
	}
	return cp
}

// CrashAt returns a fault model in which node v is crashed from round
// at[v] onward: every delivery from or to a crashed node is lost. A crash
// violates eventual delivery, so protocols blocked on a crashed node are
// expected to surface a diagnostic QuiescenceError rather than converge —
// or, under the partial-results build mode, to be carved out of the live
// network entirely (the model implements CrashScheduler).
func CrashAt(at map[int]int) FaultModel {
	cp := make(map[int]int, len(at))
	for k, v := range at {
		cp[k] = v
	}
	return crashAt{at: cp}
}

// duplicate delivers a second copy of a message with probability p.
type duplicate struct {
	seed int64
	p    float64
}

func (d duplicate) Copies(round, from, to, seq int, m Message) int {
	if hash01(d.seed^0x5bf03635, round, from, to, seq) < d.p {
		return 2
	}
	return 1
}

// ShardFaults implements FaultSharder: pure function of the delivery
// coordinates, shared across shards.
func (d duplicate) ShardFaults(p int) []FaultModel {
	out := make([]FaultModel, p)
	for i := range out {
		out[i] = d
	}
	return out
}

// Duplicate returns a fault model that delivers each message twice with
// probability p, exercising receiver-side duplicate suppression.
func Duplicate(seed int64, p float64) FaultModel { return duplicate{seed: seed, p: p} }

// compose chains fault models: each model transforms every copy the
// previous stage let through, so loss short-circuits and duplication
// multiplies.
type compose struct {
	models []FaultModel
}

func (c compose) Copies(round, from, to, seq int, m Message) int {
	n := 1
	for _, fm := range c.models {
		n *= fm.Copies(round, from, to, seq, m)
		if n == 0 {
			return 0
		}
	}
	return n
}

// ShardFaults implements FaultSharder componentwise: shard instance s is
// the composition of every stage's shard-s instance. Unshardable stages
// make the whole composition unshardable.
func (c compose) ShardFaults(p int) []FaultModel {
	parts := make([][]FaultModel, len(c.models))
	for i, fm := range c.models {
		sub, ok := shardFaultModels(fm, p)
		if !ok {
			return nil
		}
		parts[i] = sub
	}
	out := make([]FaultModel, p)
	for s := range out {
		models := make([]FaultModel, len(parts))
		for i := range parts {
			models[i] = parts[i][s]
		}
		out[s] = compose{models: models}
	}
	return out
}

// CrashSchedule implements CrashScheduler: the union of every stage's
// schedule, earliest crash round winning per node.
func (c compose) CrashSchedule() map[int]int {
	var out map[int]int
	for _, fm := range c.models {
		for v, r := range CrashRounds(fm) {
			if out == nil {
				out = make(map[int]int)
			}
			if cur, ok := out[v]; !ok || r < cur {
				out[v] = r
			}
		}
	}
	return out
}

// Compose chains fault models left to right: a delivery survives only if
// every stage lets it through, and copy counts multiply (so a Bernoulli
// loss stage composed with a Duplicate stage models a channel that both
// loses and duplicates).
func Compose(models ...FaultModel) FaultModel { return compose{models: models} }

// remapFaults translates the node IDs of a subnetwork back to the global
// IDs of the full network before consulting the wrapped model, so a fault
// model written against global coordinates (a crash schedule, a per-link
// loss pattern) applies faithfully to a component extracted under
// different (local) IDs.
type remapFaults struct {
	fm  FaultModel
	ids []int // local -> global
}

func (r remapFaults) Copies(round, from, to, seq int, m Message) int {
	if from >= 0 && from < len(r.ids) {
		from = r.ids[from]
	}
	if to >= 0 && to < len(r.ids) {
		to = r.ids[to]
	}
	return r.fm.Copies(round, from, to, seq, m)
}

// ShardFaults implements FaultSharder by sharding the wrapped model and
// re-wrapping each instance with the same ID translation.
func (r remapFaults) ShardFaults(p int) []FaultModel {
	sub, ok := shardFaultModels(r.fm, p)
	if !ok {
		return nil
	}
	out := make([]FaultModel, p)
	for s := range out {
		out[s] = remapFaults{fm: sub[s], ids: r.ids}
	}
	return out
}

// RemapFaults wraps fm so that local node i is presented to it as global
// node ids[i]. The degraded-mode build uses it to run per-component
// pipelines on remapped subgraphs while keeping the caller's fault model —
// link loss keyed by global IDs — in force. A nil fm returns nil.
func RemapFaults(fm FaultModel, ids []int) FaultModel {
	if fm == nil {
		return nil
	}
	return remapFaults{fm: fm, ids: ids}
}
