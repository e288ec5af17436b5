// Command benchcmp compares two sets of hostbench runs, parent against
// change, by the rule of the choosing-metrics guide (§8): at least ten
// pairs whose running order alternates, a gain only when the change wins
// nine tenths of the pairs and the medians differ by more than the
// parent's interquartile range, and a regression when the change's
// median is worse than the parent's by more than the metric's bound in
// BENCHMARK.json. A metric whose spread exceeds its bound is unresolved.
// Any drift of virtual outputs, or a higher share of failed operations,
// fails the comparison.
//
// Each input file is the standard output of one run of hostbench/run.sh:
//
//	go run ./benchcmp -bench ../BENCHMARK.json -old 'parent/*.txt' -new 'change/*.txt'
//
// With -old alone it prints each metric's spread against its bound.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	oldGlob := flag.String("old", "", "glob of the parent's run outputs")
	newGlob := flag.String("new", "", "glob of the change's run outputs (omit to print spreads)")
	flag.Parse()

	defs, err := loadDefs(*benchPath)
	if err == nil && *oldGlob == "" {
		err = errors.New("-old is required")
	}
	var olds, news []run
	if err == nil {
		olds, err = loadRuns(*oldGlob)
	}
	if err == nil && *newGlob != "" {
		news, err = loadRuns(*newGlob)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	if *newGlob == "" {
		printSpreads(os.Stdout, defs, olds)
		return
	}
	if !compare(os.Stdout, defs, olds, news) {
		os.Exit(1)
	}
}

// metricDef is one end_to_end entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDefs(path string) ([]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return bench.EndToEnd, nil
}

// run is one parsed hostbench output.
type run struct {
	file      string
	workload  string
	started   int64
	traced    bool
	virtual   string
	attempted float64
	failed    float64
	metrics   map[string]float64
}

func loadRuns(glob string) ([]run, error) {
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no files match %s", glob)
	}
	var runs []run
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		r, err := parseRun(fh)
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		r.file = f
		if !r.traced {
			runs = append(runs, r)
		}
	}
	return runs, nil
}

func parseRun(rd io.Reader) (run, error) {
	r := run{metrics: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(rd)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) != "" {
			last = line
		}
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && f[0] == "#" && f[1] == "hostbench":
			for _, kv := range f[2:] {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					r.workload = v
				case "trace":
					r.traced = v == "1"
				case "started":
					r.started, _ = strconv.ParseInt(v, 10, 64)
				}
			}
		case len(f) == 4 && f[0] == "#" && f[1] == "virtual":
			r.virtual = f[3]
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	var res struct {
		Attempted float64 `json:"attempted"`
		Failed    float64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	if r.workload == "" {
		return r, errors.New("no hostbench header line")
	}
	r.attempted, r.failed = res.Attempted, res.Failed
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

func byWorkload(runs []run) map[string][]run {
	m := map[string][]run{}
	for _, r := range runs {
		m[r.workload] = append(m[r.workload], r)
	}
	for _, rs := range m {
		sort.Slice(rs, func(i, j int) bool { return rs[i].started < rs[j].started })
	}
	return m
}

func sortedKeys(m map[string][]run) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func values(rs []run, name string) []float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = r.metrics[name]
	}
	return vs
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// "exclusive" method.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], median(d), q[2]
}

func median(vs []float64) float64 {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

func printSpreads(w io.Writer, defs []metricDef, runs []run) {
	fmt.Fprintf(w, "%-14s %-20s %5s %14s %8s %6s  %s\n", "workload", "metric", "runs", "median", "spread", "bound", "")
	groups := byWorkload(runs)
	for _, wl := range sortedKeys(groups) {
		rs := groups[wl]
		for _, d := range defs {
			q1, med, q3 := quartiles(values(rs, d.Name))
			spread := (q3 - q1) / med
			status := "steady"
			switch {
			case spread > d.Bound:
				status = "WIDER THAN BOUND"
			case spread > d.Bound/3:
				status = "above a third of bound"
			}
			fmt.Fprintf(w, "%-14s %-20s %5d %14.6g %8.4f %6.3f  %s\n", wl, d.Name, len(rs), med, spread, d.Bound, status)
		}
	}
}

// compare prints one row per (workload, metric) and reports whether
// the change passes.
func compare(w io.Writer, defs []metricDef, olds, news []run) bool {
	ok := true
	og, ng := byWorkload(olds), byWorkload(news)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "parent", "change", "delta", "wins", "verdict")
	for _, wl := range sortedKeys(og) {
		o, n := og[wl], ng[wl]
		if len(n) == 0 {
			fmt.Fprintf(w, "%-14s no runs of the change\n", wl)
			ok = false
			continue
		}
		digests := map[string]bool{}
		var oFailed, oAttempted, nFailed, nAttempted float64
		for _, r := range o {
			digests[r.virtual] = true
			oFailed, oAttempted = oFailed+r.failed, oAttempted+r.attempted
		}
		for _, r := range n {
			digests[r.virtual] = true
			nFailed, nAttempted = nFailed+r.failed, nAttempted+r.attempted
		}
		if len(digests) != 1 {
			fmt.Fprintf(w, "%-14s FAIL: virtual outputs drifted (%d distinct digests)\n", wl, len(digests))
			ok = false
		}
		if nFailed/nAttempted > oFailed/oAttempted {
			fmt.Fprintf(w, "%-14s FAIL: failed_ops_ratio rose from %.6g to %.6g\n", wl, oFailed/oAttempted, nFailed/nAttempted)
			ok = false
		}
		pairs := min(len(o), len(n))
		note := ""
		switch {
		case pairs < 10:
			note = fmt.Sprintf("only %d pairs", pairs)
		case !alternating(o[:pairs], n[:pairs]):
			note = "pairs did not alternate which side ran first"
		}
		for _, d := range defs {
			v := judge(d, values(o, d.Name), values(n, d.Name), pairs)
			verdict := v.verdict
			if note != "" && verdict != "REGRESSION" {
				verdict = "unresolved (" + note + ")"
			}
			if verdict == "REGRESSION" {
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %+8.2f%% %3d/%-3d  %s\n",
				wl, d.Name, v.oldMed, v.newMed, 100*(v.newMed-v.oldMed)/v.oldMed, v.wins, pairs, verdict)
		}
	}
	return ok
}

// alternating reports whether the pairs alternate which side ran first.
func alternating(o, n []run) bool {
	for i := 1; i < len(o); i++ {
		if (o[i].started < n[i].started) == (o[i-1].started < n[i-1].started) {
			return false
		}
	}
	return true
}

type judgement struct {
	oldMed, newMed float64
	wins           int
	verdict        string
}

// judge applies the guide's rule to one metric. Pair i is the i-th run
// of each side in running order.
func judge(d metricDef, o, n []float64, pairs int) judgement {
	sign := 1.0 // positive deltas are worse
	if d.Better == "higher" {
		sign = -1
	}
	q1, oMed, q3 := quartiles(o)
	nMed := median(n)
	j := judgement{oldMed: oMed, newMed: nMed}
	for i := 0; i < pairs; i++ {
		if sign*(n[i]-o[i]) < 0 {
			j.wins++
		}
	}
	worseBy := sign * (nMed - oMed) / math.Abs(oMed)
	gain := 10*j.wins >= 9*pairs && sign*(nMed-oMed) < 0 && math.Abs(nMed-oMed) > q3-q1
	allBetter := true
	for _, a := range n {
		for _, b := range o {
			if sign*(a-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case (q3-q1)/math.Abs(oMed) > d.Bound && !allBetter:
		j.verdict = "unresolved (spread wider than bound)"
	case worseBy > d.Bound:
		j.verdict = "REGRESSION"
	case gain:
		j.verdict = "better"
	default:
		j.verdict = "no change beyond bound"
	}
	return j
}
