package sim

import (
	"context"
	"errors"
	"testing"
)

// TestRunCanceledContext: a pre-canceled context stops the synchronous run
// at the next round boundary with a CanceledError unwrapping to both
// ErrCanceled and the context's cause.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := pathGraph(6)
	net := NewNetwork(g, func(id int) Protocol {
		return &flooder{id: id, started: id == 0}
	}, WithContext(ctx))
	rounds, err := net.Run(0)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if rounds != 0 {
		t.Fatalf("rounds = %d, want 0 (canceled before the first round)", rounds)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err %v should unwrap to ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v should unwrap to context.Canceled", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err %v should be a *CanceledError", err)
	}
}

// TestRunUncanceledContext: an open context changes nothing.
func TestRunUncanceledContext(t *testing.T) {
	g := pathGraph(6)
	net := NewNetwork(g, func(id int) Protocol {
		return &flooder{id: id, started: id == 0}
	}, WithContext(context.Background()))
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.N(); id++ {
		if !net.Protocol(id).(*flooder).heard {
			t.Fatalf("node %d never heard the flood", id)
		}
	}
}

// TestCrashRounds: crash schedules are introspectable through any
// composition, with the earliest crash round winning.
func TestCrashRounds(t *testing.T) {
	fm := Compose(
		Bernoulli(1, 0.1),
		CrashAt(map[int]int{3: 5, 7: 0}),
		Compose(CrashAt(map[int]int{3: 2, 9: 4}), Duplicate(2, 0.1)),
	)
	got := CrashRounds(fm)
	want := map[int]int{3: 2, 7: 0, 9: 4}
	if len(got) != len(want) {
		t.Fatalf("CrashRounds = %v, want %v", got, want)
	}
	for v, r := range want {
		if got[v] != r {
			t.Fatalf("CrashRounds[%d] = %d, want %d", v, got[v], r)
		}
	}
	if CrashRounds(nil) != nil {
		t.Fatal("CrashRounds(nil) should be nil")
	}
	if CrashRounds(Bernoulli(1, 0.5)) != nil {
		t.Fatal("a crash-free model has no schedule")
	}
}

// TestRemapFaults: a remapped model consults the inner one under global
// IDs, so a crash schedule keyed globally silences the right local node.
func TestRemapFaults(t *testing.T) {
	inner := CrashAt(map[int]int{10: 0})
	fm := RemapFaults(inner, []int{4, 10, 12})
	// Local node 1 is global node 10: everything it sends is dropped.
	if got := fm.Copies(0, 1, 2, 0, floodMsg{}); got != 0 {
		t.Fatalf("crashed sender delivered %d copies, want 0", got)
	}
	// Local node 0 (global 4) to local 2 (global 12) is unaffected.
	if got := fm.Copies(0, 0, 2, 0, floodMsg{}); got != 1 {
		t.Fatalf("live link delivered %d copies, want 1", got)
	}
	// Deliveries to the crashed node are also suppressed.
	if got := fm.Copies(3, 0, 1, 0, floodMsg{}); got != 0 {
		t.Fatalf("delivery to crashed node = %d copies, want 0", got)
	}
	if RemapFaults(nil, []int{1, 2}) != nil {
		t.Fatal("RemapFaults(nil) should be nil")
	}
}
