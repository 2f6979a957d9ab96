package cluster

import (
	"math"
	"reflect"
	"testing"

	"geospanner/internal/udg"
)

func TestRunWeightedMatchesCentralized(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		inst, err := udg.ConnectedInstance(seed, 60, 200, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		weights := DegreeWeights(inst.UDG)
		dist, _, err := RunWeighted(inst.UDG, weights, 0)
		if err != nil {
			t.Fatal(err)
		}
		cent, err := CentralizedWeighted(inst.UDG, weights)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dist.Dominators, cent.Dominators) {
			t.Fatalf("seed %d: dominators differ:\ndist %v\ncent %v", seed, dist.Dominators, cent.Dominators)
		}
		if !reflect.DeepEqual(dist.DominatorsOf, cent.DominatorsOf) {
			t.Fatalf("seed %d: DominatorsOf differ", seed)
		}
		if !reflect.DeepEqual(dist.TwoHopDominators, cent.TwoHopDominators) {
			t.Fatalf("seed %d: TwoHopDominators differ", seed)
		}
		assertValidClustering(t, inst.UDG, dist)
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

func TestRunWeightedValidation(t *testing.T) {
	inst, err := udg.ConnectedInstance(1, 10, 200, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunWeighted(inst.UDG, []float64{1}, 0); err == nil {
		t.Fatal("wrong weight count accepted")
	}
	if _, err := CentralizedWeighted(inst.UDG, nil); err == nil {
		t.Fatal("nil weights accepted")
	}
	nan := DegreeWeights(inst.UDG)
	nan[3] = math.NaN()
	if _, _, err := RunWeighted(inst.UDG, nan, 0); err == nil {
		t.Fatal("RunWeighted accepted a NaN weight")
	}
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
