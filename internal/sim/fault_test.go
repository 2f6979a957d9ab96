package sim

import (
	"math"
	"testing"
)

func TestBernoulliRateAndDeterminism(t *testing.T) {
	const p = 0.2
	fm := Bernoulli(1, p)
	fm2 := Bernoulli(1, p)
	lost := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		c := fm.Copies(i%97, i%13, (i+1)%13, i, nil)
		if c != fm2.Copies(i%97, i%13, (i+1)%13, i, nil) {
			t.Fatal("same seed, different decisions")
		}
		if c == 0 {
			lost++
		} else if c != 1 {
			t.Fatalf("bernoulli returned %d copies", c)
		}
	}
	rate := float64(lost) / trials
	if math.Abs(rate-p) > 0.02 {
		t.Fatalf("empirical loss rate %.3f, want ~%.2f", rate, p)
	}
	// Different seeds make different decisions somewhere.
	other := Bernoulli(2, p)
	same := true
	for i := 0; i < 1000 && same; i++ {
		if fm.Copies(0, 0, 1, i, nil) != other.Copies(0, 0, 1, i, nil) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical loss patterns")
	}
}

func TestBernoulliExtremes(t *testing.T) {
	always := Bernoulli(3, 1.0)
	never := Bernoulli(3, 0)
	for i := 0; i < 100; i++ {
		if always.Copies(i, 0, 1, i, nil) != 0 {
			t.Fatal("p=1 delivered a message")
		}
		if never.Copies(i, 0, 1, i, nil) != 1 {
			t.Fatal("p=0 lost a message")
		}
	}
}

func TestGilbertBurstsAndDeterminism(t *testing.T) {
	mk := func() FaultModel { return Gilbert(7, 0.2, 0.3, 1.0) }
	a, b := mk(), mk()
	var pattern []int
	for i := 0; i < 2000; i++ {
		ca := a.Copies(i, 0, 1, i, nil)
		if ca != b.Copies(i, 0, 1, i, nil) {
			t.Fatal("same seed, different Gilbert trajectories")
		}
		pattern = append(pattern, ca)
	}
	// With dropBad=1 the loss pattern is exactly the Bad-state visits:
	// expect losses, deliveries, and consecutive losses (a burst).
	losses, bursts := 0, 0
	for i, c := range pattern {
		if c == 0 {
			losses++
			if i > 0 && pattern[i-1] == 0 {
				bursts++
			}
		}
	}
	if losses == 0 || losses == len(pattern) {
		t.Fatalf("degenerate Gilbert chain: %d losses of %d", losses, len(pattern))
	}
	if bursts == 0 {
		t.Fatal("Gilbert chain produced no bursts (consecutive losses)")
	}
	// Links evolve independently: another link sees a different pattern.
	c := mk()
	diff := false
	for i := 0; i < 2000 && !diff; i++ {
		if c.Copies(i, 2, 3, i, nil) != pattern[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("distinct links share one Gilbert trajectory")
	}
}

func TestCrashAt(t *testing.T) {
	fm := CrashAt(map[int]int{4: 10})
	cases := []struct {
		round, from, to int
		want            int
	}{
		{9, 4, 1, 1},  // still alive
		{10, 4, 1, 0}, // crashed sender
		{10, 1, 4, 0}, // crashed receiver
		{10, 1, 2, 1}, // bystanders unaffected
	}
	for _, c := range cases {
		if got := fm.Copies(c.round, c.from, c.to, 0, nil); got != c.want {
			t.Errorf("Copies(round=%d, %d->%d) = %d, want %d", c.round, c.from, c.to, got, c.want)
		}
	}
	// The model copies its input map.
	at := map[int]int{1: 5}
	fm = CrashAt(at)
	at[1] = 0
	if fm.Copies(4, 1, 2, 0, nil) != 1 {
		t.Fatal("CrashAt aliased the caller's map")
	}
}

func TestDuplicateRate(t *testing.T) {
	fm := Duplicate(11, 0.3)
	doubled := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		switch fm.Copies(i%50, 0, 1, i, nil) {
		case 2:
			doubled++
		case 1:
		default:
			t.Fatal("duplicate returned an unexpected copy count")
		}
	}
	rate := float64(doubled) / trials
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("empirical duplication rate %.3f, want ~0.3", rate)
	}
}

func TestCompose(t *testing.T) {
	kill := Bernoulli(1, 1.0)
	pass := Bernoulli(1, 0)
	dup := Duplicate(1, 1.0)
	if got := Compose(pass, kill, dup).Copies(0, 0, 1, 0, nil); got != 0 {
		t.Fatalf("loss stage did not short-circuit: %d copies", got)
	}
	if got := Compose(pass, dup).Copies(0, 0, 1, 0, nil); got != 2 {
		t.Fatalf("compose lost the duplicate: %d copies", got)
	}
	if got := Compose(dup, dup).Copies(0, 0, 1, 0, nil); got != 4 {
		t.Fatalf("copy counts should multiply: %d copies", got)
	}
	if got := Compose().Copies(0, 0, 1, 0, nil); got != 1 {
		t.Fatalf("empty composition should be the identity: %d copies", got)
	}
}
