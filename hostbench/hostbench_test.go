package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// passOutputs runs one pass of w in the order seed gives and returns
// each cell's virtual outputs, failing the test on any cell error.
func passOutputs(t *testing.T, w *batch, seed int64) map[string]outputs {
	t.Helper()
	order := rand.New(rand.NewSource(seed)).Perm(len(w.cells))
	out := map[string]outputs{}
	for _, c := range runPass(w, order, nil, nil, false).cells {
		if c.err != nil {
			t.Fatalf("%s: %v", c.name, c.err)
		}
		out[c.name] = c.virt
	}
	return out
}

// TestVirtualOutputsIgnoreSeed runs every workload at a small scale
// under two seeds, one after the other in the same process: cell order
// and warm host caches must not reach virtual time.
func TestVirtualOutputsIgnoreSeed(t *testing.T) {
	for _, w := range workloads(smallScale) {
		t.Run(w.name, func(t *testing.T) {
			a := passOutputs(t, w, 1)
			b := passOutputs(t, w, 2)
			if len(a) != len(w.cells) {
				t.Fatalf("%d cells reported, want %d", len(a), len(w.cells))
			}
			if digest(a) != digest(b) {
				for name := range a {
					if err := (pinSet{name: a[name]}).check(name, b[name]); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
				t.Fatal("virtual outputs differ between seeds")
			}
		})
	}
}

// TestCorruptedPinFailsOps checks that a pin that no longer matches is
// reported, names the field, and counts the cell's ops as failed.
func TestCorruptedPinFailsOps(t *testing.T) {
	w := workloads(smallScale)[0]
	pins := pinSet(passOutputs(t, w, 1))
	victim := w.cells[2].name
	pins[victim]["elapsed_cycles"]++

	res := run(w, pins, 1, 0, false)
	passes := float64(1 + len(res.warm))
	if res.failed != passes*w.cells[2].ops() || res.attempted != passes*float64(len(w.cells))*w.cells[2].ops() {
		t.Fatalf("failed %v of %v ops in %v passes; want exactly the ops of %s", res.failed, res.attempted, passes, victim)
	}
	for _, c := range runPass(w, []int{2}, pins, nil, false).cells {
		if c.err == nil || !strings.Contains(c.err.Error(), "elapsed_cycles") {
			t.Fatalf("error %v does not name the drifted field", c.err)
		}
	}
}

// TestPinsCoverEveryCell keeps pins.json in step with the cell list.
func TestPinsCoverEveryCell(t *testing.T) {
	pins, err := loadPins("pins.json")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, w := range workloads(fullScale) {
		for _, c := range w.cells {
			n++
			if !pins.has(c.name) {
				t.Errorf("no pins for %s", c.name)
			}
		}
	}
	if len(pins) != n {
		t.Errorf("pins.json holds %d cells, the workloads %d", len(pins), n)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// identical to what the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, " | "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %q, program %q", got, workloadNames())
	}
	e2e := (&runResult{}).endToEnd()
	if len(e2e) != len(bench.EndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d printed", len(bench.EndToEnd), len(e2e))
	}
	for i, m := range e2e {
		if bench.EndToEnd[i].Name != m.name || bench.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, program prints %s (%s)", i, bench.EndToEnd[i], m.name, m.unit)
		}
	}
	defs := layerDefs()
	if len(defs) != len(bench.PerLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d printed", len(bench.PerLayer), len(defs))
	}
	for i, d := range defs {
		if bench.PerLayer[i].Name != d.name || bench.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, program prints %s (%s)", i, bench.PerLayer[i], d.name, d.unit)
		}
	}
}

// TestShareOf pins the attribution rule: the innermost frame in module
// repro wins, internal/core splits by file, and a stack without one is
// "none".
func TestShareOf(t *testing.T) {
	rt := frame{"runtime.memmove", "/go/src/runtime/memmove_amd64.s"}
	cases := []struct {
		frames []frame
		want   string
	}{
		{[]frame{rt, {"repro/internal/core.(*Kernel).lockAcquireSlot", "/x/internal/core/locks.go"}}, "core.locks"},
		{[]frame{{"repro/internal/core.(*Kernel).RunUntil.func1", "/x/internal/core/exec.go"}}, "core.exec"},
		{[]frame{rt, {"repro/internal/mmu.(*Region).FrameAt", "/x/internal/mmu/mmu.go"},
			{"repro/internal/checkpoint.SnapshotMemory", "/x/internal/checkpoint/delta.go"}}, "mmu"},
		{[]frame{{"repro/internal/sched.(*Queue).Pop", "/x/internal/sched/sched.go"}}, "core.sched"},
		{[]frame{{"repro/hostbench.runCell", "/x/hostbench/cells.go"}}, "bench"},
		{[]frame{rt, {"runtime.gcBgMarkWorker", ""}}, "none"},
	}
	for _, c := range cases {
		if got := shareOf(c.frames); got != c.want {
			t.Errorf("shareOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestProfileDecodes checks the pprof reader on a real CPU profile.
func TestProfileDecodes(t *testing.T) {
	var p profiler
	p.start()
	w := workloads(smallScale)[0]
	for i := 0; i < 20; i++ {
		runPass(w, []int{0, 1, 2, 3, 4}, nil, nil, false)
	}
	p.stop()
	ps := p.shares()
	if ps.total <= 0 {
		t.Skip("no CPU samples taken")
	}
	sum := 0.0
	for _, b := range shareBuckets {
		sum += ps.share[b]
	}
	if d := sum - ps.total; d > 1e-6*ps.total || d < -1e-6*ps.total {
		t.Fatalf("shares sum to %v of %v", sum, ps.total)
	}
}
