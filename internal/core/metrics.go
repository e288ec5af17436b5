package core

import (
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/sys"
)

// This file wires the metrics registry (internal/metrics) to the kernel.
// Each event is counted in one place. An event the kernel already counts
// — in a per-CPU Stats shard, a vlock, an address space's ExecStats or
// the trace ring — is not counted again on the hot path: its registry
// instrument is derived, filled from that count by a collector the
// registry runs at every Snapshot, Render and Prometheus export. Only
// instruments with no such twin (the latency and hold histograms, wakes,
// IPC bytes and transfers, commits, pager notices, threads, checkpoints)
// are updated in place, through pointers registered up front in
// newKernelMetrics; with no registry attached (k.Metrics == nil) each of
// those sites costs a single branch. The simulated timeline is
// bit-identical either way because metrics never charge cycles (pinned by
// TestMetricsDoNotPerturbVirtualTime).

// NumFaultCauses is the number of Table 3 exception-cause classes:
// {soft, hard} × {client-side, server-side}.
const NumFaultCauses = 4

// FaultCauseNames are the class names, client (same-space) before
// server (cross-space) within each of soft and hard.
var FaultCauseNames = [NumFaultCauses]string{
	"soft.client", "soft.server", "hard.client", "hard.server",
}

// faultCauseKeys are the Stats fault keys of the cause classes, in
// FaultCauseNames order. Fatal faults have no restart semantics and are
// counted separately.
var faultCauseKeys = [NumFaultCauses]FaultKey{
	{Class: mmu.FaultSoft, Side: FaultSame},
	{Class: mmu.FaultSoft, Side: FaultCross},
	{Class: mmu.FaultHard, Side: FaultSame},
	{Class: mmu.FaultHard, Side: FaultCross},
}

// KernelMetrics is the kernel's instrument bundle, attached with
// Kernel.EnableMetrics. It holds two kinds of instrument. The exported
// fields are updated on the hot paths because nothing else counts their
// events: pre-registered, so an update is a pointer dereference. The
// rest — context switches, preemptions, restarts, fault costs, IPC
// fast-path and zero-copy counts, lock contention and hold-history
// evictions, interpreter-tier and trace-ring counters — are counted
// once, by Stats, the vlock counters, cpu.ExecStats and the trace ring,
// and copied into the registry by a collector at every snapshot
// (collect).
type KernelMetrics struct {
	Registry *metrics.Registry

	// SyscallLatency has one log2-cycle histogram per syscall number,
	// observing entry-to-completion time of each completed dispatch
	// episode (in the process model that includes any time parked on
	// the thread's kernel stack — the user-visible call latency).
	SyscallLatency [sys.NumSyscalls]*metrics.Histogram

	Wakes *metrics.Counter

	// PreemptLatency observes, at each context switch, the cycles from
	// the moment a reschedule was requested (higher-priority wake or
	// quantum expiry) to the switch that serviced it — the in-kernel
	// view of Table 6's probe latency.
	PreemptLatency *metrics.Histogram

	IPCBytes     *metrics.Counter // payload bytes moved by CopyWords
	IPCTransfers *metrics.Counter // CopyWords invocations
	Commits      *metrics.Counter // roll-forward progress commits

	PagerNotices *metrics.Counter // hard-fault notifications queued to pagers

	ThreadsLive    *metrics.Gauge
	ThreadsCreated *metrics.Counter

	// LockHoldCycles observes each outermost hold of a lock, one
	// histogram per lock kind (LockKindNames order).
	LockHoldCycles [NumLockKinds]*metrics.Histogram

	// Checkpoint/migration instruments, updated by internal/checkpoint
	// (a user-level manager, so these never sit on an execution hot
	// path): full and delta snapshots taken, frame payloads captured vs
	// skipped because the dirty tracker proved them unchanged, and the
	// simulated stop-to-resume cycles of pre-copy migrations.
	CkptSnapshots      *metrics.Counter
	CkptDeltaSnapshots *metrics.Counter
	CkptFramesCaptured *metrics.Counter
	CkptFramesClean    *metrics.Counter
	CkptDowntimeCycles *metrics.Counter

	derived []derived
	src     metricSources // collect's reusable read buffer
}

// metricSources is one collect step's read of the kernel's own counters.
type metricSources struct {
	stats        Stats
	locks        [NumLockKinds]LockStat
	evictedLive  uint64 // holdHistory.evictedLive over every lock slot
	exec         cpu.ExecStats
	traceDropped uint64
}

// derived is a registry instrument (a counter or a gauge) whose value is
// read from the sources at collect time.
type derived struct {
	counter *metrics.Counter
	gauge   *metrics.Gauge
	get     func(*metricSources) uint64
}

// newKernelMetrics registers k's instruments on a fresh registry, with a
// collector that fills the derived ones from k. All allocation happens
// here.
func newKernelMetrics(k *Kernel) *KernelMetrics {
	reg := metrics.New()
	m := &KernelMetrics{Registry: reg}
	counter := func(name string, get func(*metricSources) uint64) {
		m.derived = append(m.derived, derived{counter: reg.Counter(name), get: get})
	}
	gauge := func(name string, get func(*metricSources) uint64) {
		m.derived = append(m.derived, derived{gauge: reg.Gauge(name), get: get})
	}
	for n := 0; n < sys.NumSyscalls; n++ {
		m.SyscallLatency[n] = reg.Histogram("syscall.latency." + sys.Name(n))
	}
	for i, name := range FaultCauseNames {
		key := faultCauseKeys[i]
		counter("fault.restarts."+name, func(s *metricSources) uint64 { return s.stats.FaultCount[key] })
		counter("fault.rollback_cycles."+name, func(s *metricSources) uint64 { return s.stats.FaultRollback[key] })
		counter("fault.remedy_cycles."+name, func(s *metricSources) uint64 { return s.stats.FaultRemedy[key] })
	}
	counter("syscall.restarts", func(s *metricSources) uint64 { return s.stats.Restarts })
	counter("fault.fatal", func(s *metricSources) uint64 {
		return s.stats.FaultCount[FaultKey{Class: mmu.FaultFatal, Side: FaultSame}] +
			s.stats.FaultCount[FaultKey{Class: mmu.FaultFatal, Side: FaultCross}]
	})
	counter("sched.context_switches", func(s *metricSources) uint64 { return s.stats.ContextSwitches })
	m.Wakes = reg.Counter("sched.wakes")
	counter("sched.timer_irqs", func(s *metricSources) uint64 { return s.stats.TimerIRQs })
	m.PreemptLatency = reg.Histogram("sched.preempt_latency")
	counter("sched.preempts.user_boundary", func(s *metricSources) uint64 { return s.stats.PreemptsUser })
	counter("sched.preempts.explicit_point", func(s *metricSources) uint64 { return s.stats.PreemptsPoint })
	counter("sched.preempts.in_kernel", func(s *metricSources) uint64 { return s.stats.PreemptsKernel })
	m.IPCBytes = reg.Counter("ipc.bytes")
	m.IPCTransfers = reg.Counter("ipc.transfers")
	m.Commits = reg.Counter("ipc.rollforward_commits")
	counter("ipc.fastpath.hits", func(s *metricSources) uint64 { return s.stats.FastpathHits })
	counter("ipc.fastpath.misses", func(s *metricSources) uint64 { return s.stats.FastpathMisses })
	counter("ipc.fastpath.fallbacks", func(s *metricSources) uint64 { return s.stats.FastpathFallbacks })
	counter("ipc.zerocopy.shares", func(s *metricSources) uint64 { return s.stats.ZeroCopyShares })
	counter("ipc.zerocopy.cowbreaks", func(s *metricSources) uint64 { return s.stats.ZeroCopyCOWBreaks })
	counter("ipc.zerocopy.fallbacks", func(s *metricSources) uint64 { return s.stats.ZeroCopyFallbacks })
	m.PagerNotices = reg.Counter("pager.fault_notices")
	m.ThreadsLive = reg.Gauge("threads.live")
	m.ThreadsCreated = reg.Counter("threads.created")
	for i, name := range LockKindNames {
		counter("lock.acquires."+name, func(s *metricSources) uint64 { return s.locks[i].Acquires })
		counter("lock.contended."+name, func(s *metricSources) uint64 { return s.locks[i].Contended })
		counter("lock.wait_cycles."+name, func(s *metricSources) uint64 { return s.locks[i].WaitCycles })
		m.LockHoldCycles[i] = reg.Histogram("lock.hold_cycles." + name)
	}
	counter("lock.history_evicted_live", func(s *metricSources) uint64 { return s.evictedLive })
	counter("sched.ipis", func(s *metricSources) uint64 { return s.stats.IPIs })
	counter("sched.steals", func(s *metricSources) uint64 { return s.stats.Steals })
	m.CkptSnapshots = reg.Counter("ckpt.snapshots")
	m.CkptDeltaSnapshots = reg.Counter("ckpt.delta_snapshots")
	m.CkptFramesCaptured = reg.Counter("ckpt.frames_captured")
	m.CkptFramesClean = reg.Counter("ckpt.frames_skipped_clean")
	m.CkptDowntimeCycles = reg.Counter("ckpt.migrate.downtime_cycles")
	gauge("trace.dropped", func(s *metricSources) uint64 { return s.traceDropped })
	gauge("cpu.decode.pages", func(s *metricSources) uint64 { return s.exec.PagesDecoded })
	gauge("cpu.decode.stale_resets", func(s *metricSources) uint64 { return s.exec.StaleResets })
	gauge("cpu.blocks.built", func(s *metricSources) uint64 { return s.exec.BlocksBuilt })
	gauge("cpu.blocks.hits", func(s *metricSources) uint64 { return s.exec.BlockHits })
	gauge("cpu.blocks.bails", func(s *metricSources) uint64 { return s.exec.BlockBails })
	gauge("cpu.blocks.invalidations", func(s *metricSources) uint64 { return s.exec.BlockInvalidations })
	reg.OnCollect(func() { m.collect(k) })
	return m
}

// collect reads k's counters and copies them into the derived
// instruments. The registry runs it at every snapshot.
func (m *KernelMetrics) collect(k *Kernel) {
	src := &m.src
	k.StatsInto(&src.stats)
	if k.par != nil {
		k.snapLock()
	}
	src.locks = k.LockStats()
	src.evictedLive = 0
	for i := range k.vlocks {
		src.evictedLive += k.vlocks[i].hist.evictedLive
	}
	if k.par != nil {
		k.snapUnlock()
	}
	src.exec = k.ExecStats()
	src.traceDropped = 0
	if k.Tracer != nil {
		src.traceDropped = k.Tracer.Dropped()
	}
	for _, d := range m.derived {
		if v := d.get(src); d.counter != nil {
			d.counter.Set(v)
		} else {
			d.gauge.Set(int64(v))
		}
	}
}

// RestartsByCause returns the restartable-fault counts in FaultCauseNames
// order — the Table 3 cross-check surface.
func (s Stats) RestartsByCause() [NumFaultCauses]uint64 {
	var out [NumFaultCauses]uint64
	for i, key := range faultCauseKeys {
		out[i] = s.FaultCount[key]
	}
	return out
}

// EnableMetrics attaches a fresh metrics bundle to the kernel (idempotent:
// an already-attached bundle is returned unchanged). The derived
// instruments read counters the kernel keeps from its start; the
// hot-path ones count from this call, so enable before running.
func (k *Kernel) EnableMetrics() *KernelMetrics {
	if k.Metrics == nil {
		k.Metrics = newKernelMetrics(k)
	}
	return k.Metrics
}
