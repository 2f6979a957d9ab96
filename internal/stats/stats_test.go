package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || s.Mean != 2 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Min != 0 || s.Max != 0 || s.Mean != 0 {
		t.Fatalf("empty Summary = %+v", s)
	}
}

func TestSummarizeNegative(t *testing.T) {
	s := Summarize([]float64{-5, 5})
	if s.Min != -5 || s.Max != 5 || s.Mean != 0 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {-5, 1}, {200, 5},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile sorted its input in place")
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	a.Add(1.5)
	a.AddInt(2)
	s := a.Summary()
	if s.N != 2 || s.Min != 1.5 || s.Max != 2 {
		t.Fatalf("Summary = %+v", s)
	}
	vals := a.Values()
	vals[0] = 99
	if a.Summary().Min == 99 {
		t.Fatal("Values should return a copy")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("name", "deg")
	tb.AddRow("UDG", 21.4)
	tb.AddRow("CDS", math.NaN())
	tb.AddRow("n", 7)
	out := tb.Render()
	if !strings.Contains(out, "21.40") {
		t.Errorf("missing float cell:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("missing NaN placeholder:\n%s", out)
	}
	if !strings.Contains(out, "7") {
		t.Errorf("missing int cell:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + separator + 3 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(1, 2.5)
	csv := tb.CSV()
	want := "a,b\n1,2.50\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}
