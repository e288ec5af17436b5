package experiments

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table 5: performance of the three applications under the five kernel
// configurations, normalized to Process NP.

// Table5Scale selects workload sizes.
type Table5Scale struct {
	Flukeperf    workload.FlukeperfScale
	MemtestBytes uint32
	GCC          workload.GCCScale
}

// FullTable5Scale approximates the paper's runs (16 MB memtest).
func FullTable5Scale() Table5Scale {
	return Table5Scale{
		Flukeperf:    workload.DefaultFlukeperfScale(),
		MemtestBytes: workload.MemtestBytes,
		GCC:          workload.DefaultGCCScale(),
	}
}

// FastTable5Scale runs in a few seconds of host time.
func FastTable5Scale() Table5Scale {
	return Table5Scale{
		Flukeperf: workload.FlukeperfScale{
			Nulls: 5_000, MutexPairs: 5_000, PingPong: 2_000, RPCs: 2_000,
			BigTransfers: 1, BigWords: 512 << 10 / 4, Searches: 2,
		},
		MemtestBytes: 2 << 20,
		GCC:          workload.GCCScale{Files: 10, Words: 128, Passes: 10},
	}
}

// Table5Cell is one workload / configuration measurement, run under both
// IPC-fastpath regimes (the Off fields are the Config.DisableIPCFastPath
// rerun, normalized against the off-regime Process NP base so each column
// stays internally consistent). The kernel activity counters come from the
// fastpath-on run's kernel — its Stats, plus the IPC byte count from its
// metrics registry — and feed Table5MetricsAppendix.
type Table5Cell struct {
	Config        string
	VirtualMS     float64
	Normalized    float64
	VirtualMSOff  float64
	NormalizedOff float64

	CtxSwitches  uint64
	Restarts     uint64
	IPCBytes     uint64
	FastpathHits uint64
}

// Table5Result holds one column (workload) of the table.
type Table5Result struct {
	Workload string
	Cells    []Table5Cell // in Configurations() order
}

const runBudget = 1 << 62

// Table5 runs the three workloads under every configuration.
func Table5(sc Table5Scale) ([]Table5Result, error) {
	mk := map[string]func(k *core.Kernel) (*workload.Workload, error){
		"memtest":   func(k *core.Kernel) (*workload.Workload, error) { return workload.NewMemtest(k, sc.MemtestBytes) },
		"flukeperf": func(k *core.Kernel) (*workload.Workload, error) { return workload.NewFlukeperf(k, sc.Flukeperf) },
		"gcc":       func(k *core.Kernel) (*workload.Workload, error) { return workload.NewGCC(k, sc.GCC) },
	}
	// One workload run on one configuration; returns (virtual ms, kernel).
	runOne := func(name string, cfg core.Config) (float64, *core.Kernel, error) {
		// The paper's tables measure the copying kernel; zero-copy frame
		// sharing (PR 5) collapses flukeperf's big transfers and with them
		// the copy-bound ratios the tables reproduce. The Bandwidth
		// experiment is where zero-copy is exercised.
		cfg.DisableZeroCopy = true
		k := core.New(cfg)
		k.EnableMetrics()
		w, err := mk[name](k)
		if err != nil {
			return 0, nil, fmt.Errorf("table5 %s %s: %w", name, cfg.Name(), err)
		}
		cycles, err := w.Run(runBudget)
		if err != nil {
			return 0, nil, fmt.Errorf("table5 %s %s: %w", name, cfg.Name(), err)
		}
		return float64(cycles) / (clock.CyclesPerMicrosecond * 1000), k, nil
	}
	var out []Table5Result
	for _, name := range []string{"memtest", "flukeperf", "gcc"} {
		res := Table5Result{Workload: name}
		var base, baseOff float64
		for _, cfg := range core.Configurations() {
			ms, k, err := runOne(name, cfg)
			if err != nil {
				return nil, err
			}
			off := cfg
			off.DisableIPCFastPath = true
			msOff, _, err := runOne(name, off)
			if err != nil {
				return nil, err
			}
			if cfg.Name() == "Process NP" {
				base, baseOff = ms, msOff
			}
			st := k.Stats()
			res.Cells = append(res.Cells, Table5Cell{
				Config:       cfg.Name(),
				VirtualMS:    ms,
				VirtualMSOff: msOff,
				CtxSwitches:  st.ContextSwitches,
				Restarts:     st.Restarts,
				IPCBytes:     k.Metrics.IPCBytes.Value(),
				FastpathHits: st.FastpathHits,
			})
		}
		for i := range res.Cells {
			res.Cells[i].Normalized = res.Cells[i].VirtualMS / base
			res.Cells[i].NormalizedOff = res.Cells[i].VirtualMSOff / baseOff
		}
		out = append(out, res)
	}
	return out, nil
}

// Table5Render formats the results like the paper (configurations as
// rows, workloads as columns; absolute time on the Process NP row), with
// each workload column split into an IPC-fastpath on/off pair so the
// paper's table is reproducible under both regimes.
func Table5Render(results []Table5Result) *stats.Table {
	t := stats.NewTable("Table 5: Application performance across kernel configurations (normalized to Process NP; fastpath on/off)",
		"Configuration", "memtest on", "memtest off", "flukeperf on", "flukeperf off", "gcc on", "gcc off")
	for i, cfg := range core.Configurations() {
		cells := make([]any, 0, 7)
		cells = append(cells, cfg.Name())
		for _, r := range results {
			c := r.Cells[i]
			von := fmt.Sprintf("%.2f", c.Normalized)
			voff := fmt.Sprintf("%.2f", c.NormalizedOff)
			if cfg.Name() == "Process NP" {
				von = fmt.Sprintf("1.00 (%.0fms)", c.VirtualMS)
				voff = fmt.Sprintf("1.00 (%.0fms)", c.VirtualMSOff)
			}
			cells = append(cells, von, voff)
		}
		t.Row(cells...)
	}
	return t
}

// Table5MetricsAppendix tabulates the kernel activity counters behind
// each Table 5 cell — why the configurations differ, not just by how
// much: preemption shows up as extra context switches, fault pressure as
// restarts, and the IPC-bound workloads as bytes through CopyWords.
func Table5MetricsAppendix(results []Table5Result) *stats.Table {
	t := stats.NewTable("Table 5 appendix: kernel activity counters per run (from the metrics registry; fastpath-on runs)",
		"Workload", "Configuration", "ctx switches", "restarts", "IPC bytes", "direct handoffs")
	for _, r := range results {
		for _, c := range r.Cells {
			t.Row(r.Workload, c.Config, c.CtxSwitches, c.Restarts, c.IPCBytes, c.FastpathHits)
		}
	}
	return t
}
