package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestMeanMaxVariance(t *testing.T) {
	xs := []int{2, 4, 6, 8}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v", m)
	}
	if m := Max(xs); m != 8 {
		t.Errorf("max = %v", m)
	}
	if v := Variance(xs); v != 5 {
		t.Errorf("variance = %v", v)
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty inputs should be zero")
	}
}

func TestCV(t *testing.T) {
	if cv := CV([]int{5, 5, 5}); cv != 0 {
		t.Errorf("constant CV = %v", cv)
	}
	if cv := CV([]int{0, 0}); cv != 0 {
		t.Errorf("zero-mean CV = %v", cv)
	}
	// CV of {0, 10} = stddev 5 / mean 5 = 1.
	if cv := CV([]int{0, 10}); math.Abs(cv-1) > 1e-9 {
		t.Errorf("CV = %v, want 1", cv)
	}
}

func TestBars(t *testing.T) {
	var buf bytes.Buffer
	Bars(&buf, "load:", []int{0, 5, 10}, 10)
	out := buf.String()
	if !strings.Contains(out, "load:") {
		t.Error("missing label")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[3], strings.Repeat("#", 10)) {
		t.Errorf("max row not full width: %q", lines[3])
	}
	if strings.Contains(lines[1], "#") {
		t.Errorf("zero row has bars: %q", lines[1])
	}
	// All-zero input must not divide by zero.
	Bars(&buf, "empty:", []int{0, 0}, 10)
}

func TestTable(t *testing.T) {
	var buf bytes.Buffer
	Table(&buf, [][]string{
		{"name", "value"},
		{"x", "1"},
		{"longer-name", "22"},
	})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	// Columns align: "value" starts at the same offset in every row.
	idx := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[1][idx:], "1") || !strings.HasPrefix(lines[2][idx:], "22") {
		t.Errorf("misaligned table:\n%s", buf.String())
	}
	Table(&buf, nil) // no panic on empty
}
