package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"geospanner/internal/udg"
)

// TestCentralizedWeightedRankRule checks the generic-weight rule directly:
// a node is a dominator iff no neighbor of higher rank (higher weight, ties
// to the smaller ID) is one. Degree weights tie often; random weights
// rarely do.
func TestCentralizedWeightedRankRule(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		inst, err := udg.ConnectedInstance(seed, 60, 200, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		g := inst.UDG
		rng := rand.New(rand.NewSource(seed))
		random := make([]float64, g.N())
		for v := range random {
			random[v] = rng.Float64()
		}
		for name, weights := range map[string][]float64{"degree": DegreeWeights(g), "random": random} {
			cl, err := CentralizedWeighted(g, weights)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < g.N(); v++ {
				beaten := false
				for _, u := range g.Neighbors(v) {
					higher := weights[u] > weights[v] || (weights[u] == weights[v] && u < v)
					if higher && cl.IsDominator(u) {
						beaten = true
					}
				}
				if cl.IsDominator(v) == beaten {
					t.Fatalf("seed %d, %s weights: node %d dominator=%v, but a higher-ranked neighbor dominates=%v",
						seed, name, v, cl.IsDominator(v), beaten)
				}
			}
			assertValidClustering(t, g, cl)
		}
	}
}

func TestWeightedEqualWeightsIsLowestID(t *testing.T) {
	inst, err := udg.ConnectedInstance(3, 50, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	uniform := make([]float64, inst.UDG.N())
	weighted, err := CentralizedWeighted(inst.UDG, uniform)
	if err != nil {
		t.Fatal(err)
	}
	lowestID := Centralized(inst.UDG)
	if !reflect.DeepEqual(weighted.Dominators, lowestID.Dominators) {
		t.Fatalf("equal weights should reduce to lowest-ID MIS:\n%v\n%v",
			weighted.Dominators, lowestID.Dominators)
	}
}

// TestDegreeWeightsShrinkDominatorSet: electing by degree covers more
// dominatees per head, so across instances the degree-weighted MIS is (on
// average) no larger than the lowest-ID one.
func TestDegreeWeightsShrinkDominatorSet(t *testing.T) {
	var idTotal, degTotal int
	for seed := int64(10); seed < 25; seed++ {
		inst, err := udg.ConnectedInstance(seed, 80, 200, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		idTotal += len(Centralized(inst.UDG).Dominators)
		deg, err := CentralizedWeighted(inst.UDG, DegreeWeights(inst.UDG))
		if err != nil {
			t.Fatal(err)
		}
		degTotal += len(deg.Dominators)
	}
	if degTotal > idTotal {
		t.Fatalf("degree-weighted dominators (%d) exceed lowest-ID (%d) in aggregate", degTotal, idTotal)
	}
	t.Logf("dominators over 15 instances: lowest-ID %d, degree-weighted %d", idTotal, degTotal)
}

func TestCentralizedWeightedValidation(t *testing.T) {
	inst, err := udg.ConnectedInstance(1, 10, 200, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CentralizedWeighted(inst.UDG, []float64{1}); err == nil {
		t.Fatal("wrong weight count accepted")
	}
	if _, err := CentralizedWeighted(inst.UDG, nil); err == nil {
		t.Fatal("nil weights accepted")
	}
	nan := DegreeWeights(inst.UDG)
	nan[3] = math.NaN()
	if _, err := CentralizedWeighted(inst.UDG, nan); err == nil {
		t.Fatal("CentralizedWeighted accepted a NaN weight")
	}
}

// TestWeightedPipelineCompatible: the connector phase consumes a weighted
// clustering unchanged.
func TestWeightedPipelineCompatible(t *testing.T) {
	inst, err := udg.ConnectedInstance(7, 60, 200, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := CentralizedWeighted(inst.UDG, DegreeWeights(inst.UDG))
	if err != nil {
		t.Fatal(err)
	}
	assertValidClustering(t, inst.UDG, cl)
}
