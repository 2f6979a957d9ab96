package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"geospanner/internal/obs"
	"geospanner/internal/sim"
	"geospanner/internal/udg"
)

// stripShardLines removes the executor's events — per-shard load reports
// — from a JSONL trace. Executor events describe the machine (shard
// count, wall time), not the protocol, so they are the one part of a
// traced run excluded from the cross-kernel-configuration determinism
// contract.
func stripShardLines(t *testing.T, trace []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, line := range bytes.Split(trace, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		e, err := obs.DecodeJSONL(line, true)
		if err != nil {
			t.Fatalf("trace line fails strict schema: %v", err)
		}
		if obs.ExecutorKind(e.Kind) {
			continue
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// tracedBuild runs one build with a byte-exact JSONL sink (wall times
// omitted) and returns the result (nil on failure), the build error text
// (a wedged lossy run fails deterministically — the error is part of the
// contract), and the protocol-level trace.
func tracedBuild(t *testing.T, seed int64, n int, opts ...BuildOption) (*Result, string, []byte) {
	t.Helper()
	inst, err := udg.ConnectedInstance(seed, n, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	sink.OmitWall = true
	res, err := Build(inst.UDG, inst.Radius, append(opts, WithTracer(sink))...)
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, errText, stripShardLines(t, buf.Bytes())
}

// sameResult asserts two builds computed identical structures and ledgers.
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !got.LDelICDS.Equal(want.LDelICDS) || !got.LDelICDSPrime.Equal(want.LDelICDSPrime) {
		t.Fatalf("%s: output graphs diverge", label)
	}
	if got.Rounds != want.Rounds {
		t.Fatalf("%s: rounds %+v, want %+v", label, got.Rounds, want.Rounds)
	}
	if !reflect.DeepEqual(got.MsgsLDel.PerNode, want.MsgsLDel.PerNode) {
		t.Fatalf("%s: per-node message ledger diverges", label)
	}
	if !reflect.DeepEqual(got.MsgsLDel.ByType, want.MsgsLDel.ByType) {
		t.Fatalf("%s: per-type ledger = %v, want %v", label, got.MsgsLDel.ByType, want.MsgsLDel.ByType)
	}
	if got.Reliable != want.Reliable {
		t.Fatalf("%s: reliable counters %+v, want %+v", label, got.Reliable, want.Reliable)
	}
}

// TestShardMatrixDeterminism is the determinism-under-composition matrix:
// every combination of {shards 1, 2, 4, 8} × {parallelism 1, NumCPU} ×
// {Reliable on/off} × {Bernoulli, Gilbert} must produce a Result and a
// JSONL protocol trace bit-identical to the default build's on the same
// fixed seed (the sim package checks every kernel cell against the
// sequential reference loop). Parallelism values are forced explicitly
// because on a single-core runner the GOMAXPROCS default would collapse
// every cell to a serial pool.
func TestShardMatrixDeterminism(t *testing.T) {
	faults := []struct {
		name string
		opt  func() BuildOption
	}{
		{"bernoulli", func() BuildOption { return WithFaults(sim.Bernoulli(99, 0.15)) }},
		{"gilbert", func() BuildOption { return WithFaults(sim.Gilbert(41, 0.2, 0.5, 0.8)) }},
	}
	for _, fault := range faults {
		for _, reliable := range []bool{false, true} {
			name := fault.name
			if reliable {
				name += "+reliable"
			}
			t.Run(name, func(t *testing.T) {
				base := func() []BuildOption {
					// Fault models are constructed fresh per build: Gilbert
					// is stateful and must not be shared across runs.
					opts := []BuildOption{fault.opt(), WithMaxRounds(3000)}
					if reliable {
						opts = append(opts, WithReliability(sim.ReliableConfig{}))
					}
					return opts
				}
				wantRes, wantErr, wantTrace := tracedBuild(t, 21, 40, base()...)
				// par=2 forces the worker pool even on a single-core
				// runner; NumCPU adds the real-hardware width elsewhere.
				pars := []int{1, 2}
				if c := runtime.NumCPU(); c > 2 {
					pars = append(pars, c)
				}
				for _, p := range []int{1, 2, 4, 8} {
					for _, k := range pars {
						label := fmt.Sprintf("shards=%d/par=%d", p, k)
						gotRes, gotErr, gotTrace := tracedBuild(t, 21, 40,
							append(base(), WithShards(p), WithParallelism(k))...)
						if gotErr != wantErr {
							t.Fatalf("%s: err = %q, want %q", label, gotErr, wantErr)
						}
						if wantRes != nil {
							sameResult(t, label, wantRes, gotRes)
						}
						if !bytes.Equal(wantTrace, gotTrace) {
							gl, wl := bytes.Split(gotTrace, []byte("\n")), bytes.Split(wantTrace, []byte("\n"))
							for i := 0; i < len(gl) && i < len(wl); i++ {
								if !bytes.Equal(gl[i], wl[i]) {
									t.Fatalf("%s: trace diverges at line %d.\ngot:  %s\nwant: %s", label, i+1, gl[i], wl[i])
								}
							}
							t.Fatalf("%s: trace length %d lines, want %d", label, len(gl), len(wl))
						}
					}
				}
			})
		}
	}
}

// TestShardGoldenTraceUnchanged replays the pinned golden JSONL trace
// at every shard count: the protocol-level stream must match the
// committed golden byte for byte, without regenerating it.
func TestShardGoldenTraceUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "trace_seed3_n12.golden.jsonl"))
	if err != nil {
		t.Fatalf("missing golden trace: %v", err)
	}
	inst, err := udg.ConnectedInstance(3, 12, 100, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		sink.OmitWall = true
		if _, err := Build(inst.UDG.Clone(), inst.Radius, WithShards(p), WithTracer(sink)); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		got := stripShardLines(t, buf.Bytes())
		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: sharded trace diverges from the golden", p)
		}
	}
}

// TestShardPartialBuild: multi-shard runs compose with the
// partition-aware build — per-component pipelines run sharded (remapped
// faults included) and produce the default build's exact partial
// result. The second case carries a stateful model: a band of crashes
// splits the network into two live components, each runs its three
// stages over its own node count, so every stage sees the same uniform
// partition and each Gilbert chain stays in the shard instance of its
// receiver.
func TestShardPartialBuild(t *testing.T) {
	cases := []struct {
		name   string
		radius float64
		// faults builds the model fresh per build: Gilbert is stateful.
		faults     func(inst *udg.Instance) sim.FaultModel
		rel        sim.ReliableConfig
		shards     []int
		parallel   int
		components int
	}{
		{"crash", 60, func(*udg.Instance) sim.FaultModel {
			return sim.CrashAt(map[int]int{5: 1})
		}, sim.ReliableConfig{MaxRetries: 3}, []int{2, 8}, 0, 1},
		{"crash-band+gilbert", 45, func(inst *udg.Instance) sim.FaultModel {
			band := make(map[int]int)
			for v := 0; v < inst.UDG.N(); v++ {
				if x := inst.UDG.Point(v).X; x > 75 && x < 125 {
					band[v] = 1
				}
			}
			return sim.Compose(sim.CrashAt(band), sim.Gilbert(41, 0.1, 0.5, 0.6))
		}, sim.ReliableConfig{}, []int{2, 4, 8}, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst, err := udg.ConnectedInstance(13, 60, 200, tc.radius, 0)
			if err != nil {
				t.Fatal(err)
			}
			build := func(extra ...BuildOption) *Result {
				t.Helper()
				opts := []BuildOption{WithPartialResults(), WithMaxRounds(2000),
					WithFaults(tc.faults(inst)), WithReliability(tc.rel)}
				res, err := Build(inst.UDG.Clone(), inst.Radius, append(opts, extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := build()
			if want.Health == nil {
				t.Fatal("partial build carries no health report")
			}
			if len(want.Health.Components) != tc.components {
				t.Fatalf("%d live components, want %d", len(want.Health.Components), tc.components)
			}
			for _, p := range tc.shards {
				label := fmt.Sprintf("shards=%d/par=%d", p, tc.parallel)
				got := build(WithShards(p), WithParallelism(tc.parallel))
				if !got.LDelICDS.Equal(want.LDelICDS) {
					t.Fatalf("%s: partial-build graphs diverge", label)
				}
				if !reflect.DeepEqual(got.MsgsLDel.PerNode, want.MsgsLDel.PerNode) {
					t.Fatalf("%s: partial-build ledgers diverge", label)
				}
				if got.Reliable != want.Reliable {
					t.Fatalf("%s: reliable counters %+v, want %+v", label, got.Reliable, want.Reliable)
				}
				if got.Rounds != want.Rounds {
					t.Fatalf("%s: rounds %+v, want %+v", label, got.Rounds, want.Rounds)
				}
				if got.Health == nil || !reflect.DeepEqual(got.Health.DeadNodes, want.Health.DeadNodes) {
					t.Fatalf("%s: dead sets diverge", label)
				}
			}
		})
	}
}

// hashLoss loses a fixed pseudo-random fifth of the deliveries. It
// implements only Copies — no ShardFaults — so the kernel cannot split it
// across shards.
type hashLoss struct{}

func (hashLoss) Copies(round, from, to, seq int, m sim.Message) int {
	if (round*7919+from*31+to)%5 == 0 {
		return 0
	}
	return 1
}

// TestShardUnshardableFaultsBuild: a fault model without ShardFaults
// cannot be split across shards, so a lossy build asking for four shards
// runs every stage on one and equals the WithShards(1) build — result,
// ledgers, and trace.
func TestShardUnshardableFaultsBuild(t *testing.T) {
	build := func(p int) (*Result, string, []byte) {
		return tracedBuild(t, 21, 40, WithFaults(hashLoss{}), WithReliability(sim.ReliableConfig{}),
			WithMaxRounds(3000), WithShards(p))
	}
	wantRes, wantErr, wantTrace := build(1)
	if wantRes == nil {
		t.Fatalf("one-shard unshardable-faults build failed: %s", wantErr)
	}
	gotRes, gotErr, gotTrace := build(4)
	if gotErr != wantErr {
		t.Fatalf("err = %q, want %q", gotErr, wantErr)
	}
	sameResult(t, "shards=4+unshardable", wantRes, gotRes)
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Fatal("shards=4+unshardable: trace diverges from the WithShards(1) build")
	}
}
