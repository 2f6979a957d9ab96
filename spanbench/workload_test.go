package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// Small versions of the two workloads: the same code paths, at sizes
// that run in about a second, with enough epochs for every percentile.
var smallWorkloads = map[string]func(config, *report) error{
	"churn-steady": func(cfg config, rep *report) error {
		spec := churnSpec{name: "churn-steady", n: 200, batch: 4, mix: mixMove,
			epochsPerSecond: 150, coldStarts: 2, recoveries: 2, build: coldSpec{n: 150, instancesPerSecond: 3}}
		return runWorkload(spec, cfg, rep)
	},
	"churn-burst": func(cfg config, rep *report) error {
		spec := churnSpec{name: "churn-burst", n: 300, batch: 20, mix: mixMixed,
			epochsPerSecond: 400, coldStarts: 2, recoveries: 2, build: coldSpec{n: 150, instancesPerSecond: 3}}
		return runWorkload(spec, cfg, rep)
	},
}

func runSmall(t *testing.T, name string, trace bool) *report {
	t.Helper()
	rep := newReport(io.Discard)
	cfg := config{seed: 5, seconds: 1, trace: trace, dir: t.TempDir()}
	if err := smallWorkloads[name](cfg, rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.errs)
	}
	return rep
}

// TestWorkloadsRepeatExactly runs each small workload twice at one seed,
// untraced and traced, and requires identical determinism lines: every
// fingerprint, digest and exact count.
func TestWorkloadsRepeatExactly(t *testing.T) {
	for name := range smallWorkloads {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				a, b := runSmall(t, name, trace), runSmall(t, name, trace)
				if len(a.det) == 0 {
					t.Fatal("no determinism lines")
				}
				if !reflect.DeepEqual(a.det, b.det) {
					t.Fatalf("determinism lines differ:\n%s\n---\n%s", strings.Join(a.det, "\n"), strings.Join(b.det, "\n"))
				}
				checkManifestMetrics(t, a, trace)
			})
		}
	}
}

// checkManifestMetrics requires that a run prints exactly the metrics
// BENCHMARK.json lists for its mode — every end-to-end metric untraced,
// every per-layer metric traced — each in its unit.
func checkManifestMetrics(t *testing.T, rep *report, trace bool) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var manifest struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	want := manifest.EndToEnd
	if trace {
		want = manifest.PerLayer
	}
	for _, m := range want {
		got, ok := rep.metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s in %s, manifest says %s", m.Name, got.Unit, m.Unit)
		}
	}
	if len(rep.metrics) != len(want) {
		t.Errorf("run printed %d metrics, manifest lists %d", len(rep.metrics), len(want))
	}
}

func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	rep := newReport(&out)
	rep.op(nil)
	rep.metric("setup_s", "s")(0.5, nil)
	if code := rep.finish(); code != 0 {
		t.Fatalf("exit code %d for a passing run", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys %v, want correct, attempted, failed, metrics", keys)
	}

	rep = newReport(io.Discard)
	rep.op(nil)
	rep.check(false, "output differs")
	if code := rep.finish(); code == 0 {
		t.Fatal("a failed check exited 0")
	}
}
