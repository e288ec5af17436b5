// Command hostbench is the repository's host-time benchmark. It runs
// one of four deterministic closed-batch workloads for a fixed number
// of host seconds, checks every cell's virtual outputs against the
// values pinned in pins.json, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer table) as the last line of its output:
//
//	go run . -workload ipc-paper5 -seed 1 -seconds 20 -trace 0
//
// Run it from the repository root through hostbench/run.sh, which
// builds the binary inside the checkout. See README.md for the
// workloads, the metrics and the layer each metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	wl := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "permutes the order of cells within each pass")
	seconds := flag.Int("seconds", 20, "host seconds to measure")
	traceOn := flag.Int("trace", 0, "1: print the per-layer table instead of the end-to-end metrics")
	pinPath := flag.String("pins", "hostbench/pins.json", "pinned virtual outputs")
	writePins := flag.Bool("write-pins", false, "run one pass and record its virtual outputs as the pins of this workload")
	flag.Parse()

	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	w, ok := workloadByName(*wl)
	if !ok {
		fmt.Fprintf(os.Stderr, "hostbench: unknown workload %q (want %s)\n", *wl, workloadNames())
		os.Exit(2)
	}
	pins, err := loadPins(*pinPath)
	if err != nil && !*writePins {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
	if *writePins {
		if err := recordPins(*pinPath, pins, w); err != nil {
			fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("# hostbench workload=%s seed=%d seconds=%d trace=%d started=%d\n",
		w.name, *seed, *seconds, *traceOn, time.Now().UnixNano())
	res := run(w, pins, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1)
	res.print(os.Stdout, *traceOn == 1)
}

// runResult is everything one invocation measured.
type runResult struct {
	workload  string
	attempted float64
	failed    float64
	warm      []passResult // measured passes, untraced
	traced    []passResult // measured passes, traced (trace mode only)
	slices    []float64    // slowdown samples of the untraced passes
	virtual   string       // digest of the cells' virtual outputs
	prof      *profileShares
}

// run executes passes of w until d has elapsed. The first pass warms
// the host caches and the heap and is checked but not measured. In
// trace mode the measured passes alternate untraced and traced, so the
// two halves see the same host conditions.
func run(w *batch, pins pinSet, seed int64, d time.Duration, traced bool) *runResult {
	rng := rand.New(rand.NewSource(seed))
	res := &runResult{workload: w.name, slices: make([]float64, 0, 1<<16)}
	virt := map[string]outputs{}
	reported := map[string]bool{} // cells whose failure was printed
	var prof *profiler
	if traced {
		prof = &profiler{}
	}
	// At least one measured pass of each kind, however short d is.
	minPasses := 2
	if traced {
		minPasses = 3
	}
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < d; pass++ {
		measured := pass > 0
		tr := traced && measured && pass%2 == 0
		var sl *[]float64
		if measured && !tr {
			sl = &res.slices
		}
		if tr {
			prof.start()
		}
		p := runPass(w, rng.Perm(len(w.cells)), pins, sl, tr)
		if tr {
			prof.stop()
		}
		for _, c := range p.cells {
			res.attempted += c.ops
			if c.err != nil {
				res.failed += c.ops
				if !reported[c.name] {
					reported[c.name] = true
					fmt.Fprintf(os.Stderr, "hostbench: %s: %v\n", c.name, c.err)
				}
			}
			if _, seen := virt[c.name]; !seen && c.virt != nil {
				virt[c.name] = c.virt
			}
		}
		switch {
		case tr:
			res.traced = append(res.traced, p)
		case measured:
			res.warm = append(res.warm, p)
		}
	}
	res.virtual = digest(virt)
	if prof != nil {
		res.prof = prof.shares()
	}
	return res
}

// passResult is one pass over every cell of a workload.
type passResult struct {
	cells []cellResult
}

func (p passResult) sum(f func(*cellResult) float64) float64 {
	s := 0.0
	for i := range p.cells {
		s += f(&p.cells[i])
	}
	return s
}

// perOp is f summed over every cell of ps, over their ops. Totals
// rather than a median over passes: the host alternates between fast
// and slow spells lasting tens of milliseconds, so per-pass values are
// bimodal and their median jumps between the modes from run to run,
// while the total moves only with the share of slow time.
func perOp(ps []passResult, f func(*cellResult) float64) float64 {
	var v, ops float64
	for _, p := range ps {
		v += p.sum(f)
		ops += p.sum(func(c *cellResult) float64 { return c.ops })
	}
	return v / ops
}

func hostNS(c *cellResult) float64 { return float64(c.runNS) }

// medianOver is the median over passes of f.
func medianOver(ps []passResult, f func(passResult) float64) float64 {
	vs := make([]float64, len(ps))
	for i, p := range ps {
		vs[i] = f(p)
	}
	return quantile(vs, 0.5)
}

// endToEnd computes the end-to-end metrics from the untraced passes.
func (r *runResult) endToEnd() []metric {
	ps := r.warm
	return []metric{
		{"setup_s", "s", medianOver(ps, func(p passResult) float64 {
			return p.sum(func(c *cellResult) float64 { return float64(c.setupNS) }) / 1e9
		})},
		{"host_ns_per_op", "ns", perOp(ps, hostNS)},
		{"slowdown_p50", "ns/vns", quantile(r.slices, 0.50)},
		{"slowdown_p99", "ns/vns", quantile(r.slices, 0.99)},
		{"alloc_bytes_per_op", "B", perOp(ps, func(c *cellResult) float64 { return float64(c.allocB) })},
		{"heap_live_mb", "MB", medianOver(ps, func(p passResult) float64 {
			live := 0.0
			for _, c := range p.cells {
				live = math.Max(live, float64(c.liveB))
			}
			return live / (1 << 20)
		})},
	}
}

type metric struct {
	name  string
	unit  string
	value float64
}

func (r *runResult) print(out *os.File, traced bool) {
	failedRatio := 0.0
	if r.attempted > 0 {
		failedRatio = r.failed / r.attempted
	}
	fmt.Fprintf(out, "# passes=%d traced_passes=%d slices=%d (beyond p99: %d)\n",
		len(r.warm), len(r.traced), len(r.slices), len(r.slices)/100)
	fmt.Fprintf(out, "# virtual %s %s\n", r.workload, r.virtual)
	var ms []metric
	if traced {
		ms = r.layers()
	} else {
		ms = r.endToEnd()
	}
	fmt.Fprintf(out, "# %-40s %14.6g %s\n", "failed_ops_ratio", failedRatio, "ratio")
	for _, m := range ms {
		fmt.Fprintf(out, "# %-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: int64(math.Round(r.attempted)),
		Failed:    int64(math.Ceil(r.failed)),
		Metrics:   map[string]val{},
	}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[m.name] = val{v, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // a map of plain numbers always marshals
	}
	fmt.Fprintln(out, string(b))
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics; NaN when vs is empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
