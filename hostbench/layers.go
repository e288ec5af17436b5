package main

import "repro/internal/clock"

// The layer table of a traced run. Every workload reports every metric;
// a layer the workload does not exercise reads 0.

// cellKeys lists the span keys of a workload's cells, in cell order.
func cellKeys(workload string) []string {
	w, _ := workloadByName(workload)
	keys := make([]string, len(w.cells))
	for i, c := range w.cells {
		keys[i] = c.key
	}
	return keys
}

var (
	ipcKeys  = cellKeys("ipc-paper5")
	runKeys  = cellKeys("compute-ckpt")
	manyKeys = cellKeys("manycore")
)

// layerDef names one per-layer metric.
type layerDef struct{ name, unit, better string }

// layerDefs lists the per-layer metrics in report order.
func layerDefs() []layerDef {
	d := []layerDef{
		{"setup.kernel_ms", "ms", "lower"},
		{"setup.workload_ms", "ms", "lower"},
	}
	for _, k := range ipcKeys {
		d = append(d, layerDef{"core.run_ns_per_rpc." + k, "ns", "lower"})
	}
	d = append(d,
		layerDef{"core.syscalls_per_op", "count/op", "lower"},
		layerDef{"core.ctx_switches_per_op", "count/op", "lower"},
		layerDef{"core.host_ns_per_syscall", "ns", "lower"},
		layerDef{"locks.acquires_per_op", "count/op", "lower"},
		layerDef{"locks.contended_ratio", "ratio", "lower"},
		layerDef{"locks.wait_kcycles_per_op", "kcycles/op", "lower"},
	)
	for _, k := range manyKeys {
		d = append(d, layerDef{"manycore.cell_ms." + k, "ms", "lower"})
	}
	d = append(d,
		layerDef{"sched.ipis_per_op", "count/op", "lower"},
		layerDef{"sched.steals_per_op", "count/op", "lower"},
		layerDef{"ipc.fastpath_hit_ratio", "ratio", "higher"},
		layerDef{"ipc.zerocopy_shares_per_op", "count/op", "higher"},
		layerDef{"ipc.zerocopy_fallback_ratio", "ratio", "lower"},
		layerDef{"ipc.cow_breaks_per_op", "count/op", "lower"},
		layerDef{"cpu.block_hit_ratio", "ratio", "higher"},
		layerDef{"cpu.blocks_built", "count", "lower"},
		layerDef{"cpu.pages_decoded", "count", "lower"},
		layerDef{"cpu.stale_resets", "count", "lower"},
	)
	for _, k := range runKeys {
		d = append(d, layerDef{"run.ns_per_vus." + k, "ns/vus", "lower"})
	}
	d = append(d,
		layerDef{"mmu.faults_per_op", "count/op", "lower"},
		layerDef{"mmu.fault_remedy_kcycles", "kcycles/op", "lower"},
		layerDef{"nic.irqs_per_conn", "count/conn", "lower"},
		layerDef{"nic.coalesced_ratio", "ratio", "higher"},
		layerDef{"nic.ring_full_stalls", "count", "lower"},
		layerDef{"nic.unshares_per_conn", "count/conn", "lower"},
		layerDef{"checkpoint.full_ms", "ms", "lower"},
		layerDef{"checkpoint.delta_ms_p50", "ms", "lower"},
		layerDef{"checkpoint.delta_ms_p99", "ms", "lower"},
		layerDef{"checkpoint.restore_ms", "ms", "lower"},
		layerDef{"checkpoint.pause_share", "ratio", "lower"},
		layerDef{"checkpoint.delta_kib_per_snapshot", "KiB", "lower"},
		layerDef{"checkpoint.clean_ratio", "ratio", "higher"},
		layerDef{"checkpoint.alloc_mb_per_snapshot", "MB", "lower"},
		layerDef{"gc.cycles", "count", "lower"},
		layerDef{"gc.pause_ms", "ms", "lower"},
	)
	for _, b := range shareBuckets {
		d = append(d, layerDef{"share." + b, "%", "lower"})
	}
	for _, c := range leafClasses {
		d = append(d, layerDef{"leaf.runtime." + c, "%", "lower"})
	}
	return append(d, layerDef{"bench.trace_overhead", "ratio", "lower"})
}

// layerTotals sums a traced run's counters over every traced cell.
type layerTotals struct {
	ops                                              float64
	syscalls, ctxSwitches, ipis, steals              float64
	fpHits, fpMisses, fpFallbacks                    float64
	zcShares, zcFallbacks, zcBreaks                  float64
	faults, remedyCycles                             float64
	acquires, contended, waitCycles                  float64
	blockHits, blockBails                            float64
	irqs, coalesced, rxFrames, unshares              float64
	fullNS, deltaNS, restoreNS                       []float64
	pauseNS, runNS                                   float64
	deltaBytes, deltaFrames, cleanFrames, snapAllocB float64
	snapshots                                        float64
}

func (t *layerTotals) add(c *cellResult) {
	tr := c.tr
	t.ops += c.ops
	for _, l := range tr.locks {
		t.acquires += float64(l.Acquires)
		t.contended += float64(l.Contended)
		t.waitCycles += float64(l.WaitCycles)
	}
	t.blockHits += float64(tr.exec.BlockHits)
	t.blockBails += float64(tr.exec.BlockBails)
	if st := tr.stats; st != nil {
		t.syscalls += float64(st.Syscalls)
		t.ctxSwitches += float64(st.ContextSwitches)
		t.ipis += float64(st.IPIs)
		t.steals += float64(st.Steals)
		t.fpHits += float64(st.FastpathHits)
		t.fpMisses += float64(st.FastpathMisses)
		t.fpFallbacks += float64(st.FastpathFallbacks)
		t.zcShares += float64(st.ZeroCopyShares)
		t.zcFallbacks += float64(st.ZeroCopyFallbacks)
		t.zcBreaks += float64(st.ZeroCopyCOWBreaks)
		for _, n := range st.FaultCount {
			t.faults += float64(n)
		}
		for _, n := range st.FaultRemedy {
			t.remedyCycles += float64(n)
		}
	}
	if n := tr.nic; n != nil {
		t.irqs += float64(n.IRQs)
		t.coalesced += float64(n.Coalesced)
		t.rxFrames += float64(n.RxFrames)
		t.unshares += float64(n.Unshares)
	}
	if ck := tr.ckpt; ck != nil {
		t.fullNS = appendNS(t.fullNS, ck.fullNS)
		t.deltaNS = appendNS(t.deltaNS, ck.deltaNS)
		t.restoreNS = append(t.restoreNS, float64(tr.restoreNS))
		t.pauseNS += float64(ck.pauseNS)
		t.runNS += float64(c.runNS)
		t.deltaBytes += float64(ck.deltaBytes)
		t.deltaFrames += float64(ck.deltaFrames)
		t.cleanFrames += float64(ck.cleanFrames)
		t.snapAllocB += float64(ck.allocB)
		t.snapshots += float64(ck.snapshots)
	}
}

func appendNS(dst []float64, ns []int64) []float64 {
	for _, v := range ns {
		dst = append(dst, float64(v))
	}
	return dst
}

// div is a/b, or 0 when b is 0 (the layer did no work).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroNaN maps the quantile of an empty sample set to 0.
func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// layers computes the per-layer table from the traced passes.
func (r *runResult) layers() []metric {
	var t layerTotals
	for _, p := range r.traced {
		for i := range p.cells {
			if p.cells[i].tr != nil {
				t.add(&p.cells[i])
			}
		}
	}
	ps := r.traced
	perPass := func(f func(c *cellResult) float64) float64 {
		return zeroNaN(medianOver(ps, func(p passResult) float64 { return p.sum(f) }))
	}
	// perKey is the median over passes of f for the cells reporting
	// under key.
	perKey := func(key string, f func(c *cellResult) float64) float64 {
		var vs []float64
		for _, p := range ps {
			for i := range p.cells {
				if c := &p.cells[i]; c.key == key && c.tr != nil {
					vs = append(vs, f(c))
				}
			}
		}
		return zeroNaN(quantile(vs, 0.5))
	}
	v := map[string]float64{
		"setup.kernel_ms":   perPass(func(c *cellResult) float64 { return float64(c.tr.kernelNS) / 1e6 }),
		"setup.workload_ms": perPass(func(c *cellResult) float64 { return float64(c.tr.workloadNS) / 1e6 }),

		"core.syscalls_per_op":     div(t.syscalls, t.ops),
		"core.ctx_switches_per_op": div(t.ctxSwitches, t.ops),
		"core.host_ns_per_syscall": zeroNaN(medianOver(ps, func(p passResult) float64 {
			return div(p.sum(func(c *cellResult) float64 { return float64(c.runNS) }),
				p.sum(func(c *cellResult) float64 {
					if c.tr.stats == nil {
						return 0
					}
					return float64(c.tr.stats.Syscalls)
				}))
		})),
		"locks.acquires_per_op":     div(t.acquires, t.ops),
		"locks.contended_ratio":     div(t.contended, t.acquires),
		"locks.wait_kcycles_per_op": div(t.waitCycles/1000, t.ops),

		"sched.ipis_per_op":   div(t.ipis, t.ops),
		"sched.steals_per_op": div(t.steals, t.ops),

		"ipc.fastpath_hit_ratio":      div(t.fpHits, t.fpHits+t.fpMisses+t.fpFallbacks),
		"ipc.zerocopy_shares_per_op":  div(t.zcShares, t.ops),
		"ipc.zerocopy_fallback_ratio": div(t.zcFallbacks, t.zcShares+t.zcFallbacks),
		"ipc.cow_breaks_per_op":       div(t.zcBreaks, t.ops),

		"cpu.block_hit_ratio": div(t.blockHits, t.blockHits+t.blockBails),
		"cpu.blocks_built":    perPass(func(c *cellResult) float64 { return float64(c.tr.exec.BlocksBuilt) }),
		"cpu.pages_decoded":   perPass(func(c *cellResult) float64 { return float64(c.tr.exec.PagesDecoded) }),
		"cpu.stale_resets":    perPass(func(c *cellResult) float64 { return float64(c.tr.exec.StaleResets) }),

		"mmu.faults_per_op":        div(t.faults, t.ops),
		"mmu.fault_remedy_kcycles": div(t.remedyCycles/1000, t.ops),

		"nic.irqs_per_conn":     div(t.irqs, t.ops),
		"nic.coalesced_ratio":   div(t.coalesced, t.rxFrames),
		"nic.ring_full_stalls":  perPass(func(c *cellResult) float64 { return nicStalls(c) }),
		"nic.unshares_per_conn": div(t.unshares, t.ops),

		"checkpoint.full_ms":                zeroNaN(quantile(t.fullNS, 0.5)) / 1e6,
		"checkpoint.delta_ms_p50":           zeroNaN(quantile(t.deltaNS, 0.5)) / 1e6,
		"checkpoint.delta_ms_p99":           zeroNaN(quantile(t.deltaNS, 0.99)) / 1e6,
		"checkpoint.restore_ms":             zeroNaN(quantile(t.restoreNS, 0.5)) / 1e6,
		"checkpoint.pause_share":            div(t.pauseNS, t.runNS),
		"checkpoint.delta_kib_per_snapshot": div(t.deltaBytes/1024, t.snapshots-float64(len(t.fullNS))),
		"checkpoint.clean_ratio":            div(t.cleanFrames, t.cleanFrames+t.deltaFrames),
		"checkpoint.alloc_mb_per_snapshot":  div(t.snapAllocB/(1<<20), t.snapshots),

		"gc.cycles":   perPass(func(c *cellResult) float64 { return float64(c.tr.gcCycles) }),
		"gc.pause_ms": perPass(func(c *cellResult) float64 { return float64(c.tr.gcPauseNS) / 1e6 }),

		"bench.trace_overhead": div(perOp(ps, hostNS), perOp(r.warm, hostNS)) - 1,
	}
	for _, k := range ipcKeys {
		v["core.run_ns_per_rpc."+k] = perKey(k, func(c *cellResult) float64 { return float64(c.runNS) / c.ops })
	}
	for _, k := range manyKeys {
		v["manycore.cell_ms."+k] = perKey(k, func(c *cellResult) float64 { return float64(c.runNS) / 1e6 })
	}
	for _, k := range runKeys {
		v["run.ns_per_vus."+k] = perKey(k, func(c *cellResult) float64 {
			return float64(c.runNS-c.tr.ckpt.pauseNS) / (float64(c.tr.elapsed) / clock.CyclesPerMicrosecond)
		})
	}
	if pr := r.prof; pr != nil && pr.total > 0 {
		for _, b := range shareBuckets {
			v["share."+b] = 100 * pr.share[b] / pr.total
		}
		for _, c := range leafClasses {
			v["leaf.runtime."+c] = 100 * pr.leaf[c] / pr.total
		}
	}

	defs := layerDefs()
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		out = append(out, metric{d.name, d.unit, v[d.name]})
	}
	return out
}

func nicStalls(c *cellResult) float64 {
	if c.tr.nic == nil {
		return 0
	}
	return float64(c.tr.nic.RingFullStalls)
}
