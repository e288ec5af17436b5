package main

import (
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), which the acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]; the median is 5.5.
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	def := metricDef{Name: "host_ns_per_op", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	for i, v := range parent {
		faster[i], slower[i] = v*0.8, v*1.2
	}
	wide := []float64{60, 140, 70, 130, 100, 100, 65, 135, 100, 100}
	for _, c := range []struct {
		name     string
		old, new []float64
		verdict  string
		wantWins int
	}{
		{"gain", parent, faster, "better", 10},
		{"regression", parent, slower, "REGRESSION", 0},
		{"same", parent, parent, "no change beyond bound", 0},
		{"noisy parent", wide, parent, "unresolved (spread wider than bound)", 0},
	} {
		j := judge(def, c.old, c.new, len(c.old))
		if j.verdict != c.verdict || (c.wantWins > 0 && j.wins != c.wantWins) {
			t.Errorf("%s: verdict %q with %d wins, want %q", c.name, j.verdict, j.wins, c.verdict)
		}
	}
}

func TestParseRun(t *testing.T) {
	out := `# hostbench workload=netload seed=3 seconds=25 trace=0 started=42
# passes=9 traced_passes=0 slices=100 (beyond p99: 1)
# virtual netload abc123
{"correct":true,"attempted":10,"failed":1,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}
`
	r, err := parseRun(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if r.workload != "netload" || r.started != 42 || r.traced || r.virtual != "abc123" ||
		r.attempted != 10 || r.failed != 1 || r.metrics["setup_s"] != 0.5 {
		t.Fatalf("parsed %+v", r)
	}
}
