package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

// observeProgram exercises every instrumented hot path under all five
// configurations: a mutex handle on an untouched demand-zero page (soft
// fault + syscall restart), a run of null syscalls, a cond wait/signal
// rendezvous (voluntary block + wake), and a timed sleep (timer wake).
// Thread 2 enters at label "t2"; thread 3, at label "t3", loads from an
// unmapped address (a fatal fault).
func observeProgram() *prog.Builder {
	const (
		mtx  = dataBase + 8*mem.PageSize // first touch of this page faults
		cnd  = dataBase + 0x104
		flag = dataBase + 0x200
	)
	b := prog.New(codeBase)
	b.MutexCreate(mtx).CondCreate(cnd).
		Null().Null().Null().
		MutexLock(mtx).
		Label("check").
		Movi(4, flag).Ld(5, 4, 0).
		Movi(6, 0)
	b.Bne(5, 6, "got")
	b.CondWait(cnd, mtx).
		Jmp("check").
		Label("got").
		MutexUnlock(mtx).
		Halt()
	b.Label("t2").
		ThreadSleepUS(500).
		MutexLock(mtx).
		Movi(4, flag).Movi(5, 1).St(4, 0, 5).
		CondSignal(cnd).
		MutexUnlock(mtx).
		Halt()
	b.Label("t3").
		Movi(4, 0x7000_0000).Ld(5, 4, 0). // unmapped: a fatal fault
		Halt()
	return b
}

func runObserve(t *testing.T, cfg core.Config, instrument bool) *env {
	t.Helper()
	e := newEnv(t, cfg)
	if instrument {
		e.k.EnableMetrics()
	}
	b := observeProgram()
	t1 := e.spawn(t, b, 10)
	t2 := e.spawnAt(b.Addr("t2"), 10)
	e.run(t, 400_000_000, t1, t2)
	return e
}

// TestMetricsDoNotPerturbVirtualTime pins the observability contract:
// attaching a metrics registry never charges cycles, so the simulated
// timeline — and every Stats aggregate derived from it — is bit-identical
// with and without instrumentation.
func TestMetricsDoNotPerturbVirtualTime(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		plain := runObserve(t, cfg, false)
		inst := runObserve(t, cfg, true)
		if p, i := plain.k.Clock.Now(), inst.k.Clock.Now(); p != i {
			t.Fatalf("final virtual time diverged: plain=%d instrumented=%d", p, i)
		}
		pss, iss := plain.k.Stats(), inst.k.Stats()
		ps, is := &pss, &iss
		if ps.Syscalls != is.Syscalls || ps.ContextSwitches != is.ContextSwitches ||
			ps.Restarts != is.Restarts {
			t.Fatalf("event counts diverged: plain=%+v instrumented=%+v", ps, is)
		}
		if ps.UserCycles != is.UserCycles || ps.KernelCycles != is.KernelCycles ||
			ps.IdleCycles != is.IdleCycles {
			t.Fatalf("cycle accounting diverged: plain u=%d k=%d i=%d, instrumented u=%d k=%d i=%d",
				ps.UserCycles, ps.KernelCycles, ps.IdleCycles,
				is.UserCycles, is.KernelCycles, is.IdleCycles)
		}
	})
}

// snapshotValues reads k's registry the way every exporter does — a
// Snapshot, with no sync call first — into name → value for counters and
// gauges.
func snapshotValues(k *core.Kernel) map[string]uint64 {
	snap := k.Metrics.Registry.Snapshot()
	out := map[string]uint64{}
	for _, c := range snap.Counters {
		out[c.Name] = c.Value
	}
	for _, g := range snap.Gauges {
		out[g.Name] = uint64(g.Value)
	}
	return out
}

// TestMetricsSnapshotCollects pins the collect step: a registry snapshot
// or render taken with no manual sync call already carries the derived
// values — the interpreter-tier gauges and the Stats-derived counters.
func TestMetricsSnapshotCollects(t *testing.T) {
	e := newEnv(t, core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial})
	e.k.EnableMetrics()
	b := prog.New(codeBase)
	b.Movi(6, 0).Movi(5, 200).
		Label("loop").
		Null().
		Addi(7, 6, 3).Addi(7, 7, 5).Addi(6, 6, 1).
		Blt(6, 5, "loop").
		Halt()
	e.run(t, 400_000_000, e.spawn(t, b, 10))

	out := e.k.Metrics.Registry.Render("m")
	got := snapshotValues(e.k)
	st, es := e.k.Stats(), e.k.ExecStats()
	if es.BlockHits == 0 || got["cpu.blocks.hits"] != es.BlockHits {
		t.Errorf("cpu.blocks.hits = %d, ExecStats.BlockHits = %d (want equal, non-zero)",
			got["cpu.blocks.hits"], es.BlockHits)
	}
	if !strings.Contains(out, "cpu.blocks.hits (gauge)") {
		t.Errorf("Render has no cpu.blocks.hits row:\n%s", out)
	}
	if st.ContextSwitches == 0 || got["sched.context_switches"] != st.ContextSwitches {
		t.Errorf("sched.context_switches = %d, Stats.ContextSwitches = %d (want equal, non-zero)",
			got["sched.context_switches"], st.ContextSwitches)
	}
}

// TestMetricsMatchStats checks every derived counter against the Stats or
// LockStats field it is read from, and the hot-path instruments against
// the Stats aggregates the benchmark harness already trusts. Thread 3 of
// the observe program takes a fatal fault; a 2-CPU per-subsystem run
// adds cross-CPU and lock-model traffic.
func TestMetricsMatchStats(t *testing.T) {
	// FaultCauseNames order: soft.client, soft.server, hard.client, hard.server.
	causeKeys := [core.NumFaultCauses]core.FaultKey{
		{Class: mmu.FaultSoft, Side: core.FaultSame},
		{Class: mmu.FaultSoft, Side: core.FaultCross},
		{Class: mmu.FaultHard, Side: core.FaultSame},
		{Class: mmu.FaultHard, Side: core.FaultCross},
	}
	cfgs := allConfigs()
	cfgs = append(cfgs, core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
		NumCPUs: 2, LockModel: core.LockPerSubsystem})
	var lockAcquires uint64
	for _, cfg := range cfgs {
		name := cfg.Name()
		if cfg.NumCPUs > 1 {
			name = fmt.Sprintf("%s cpus=%d %s", name, cfg.NumCPUs, cfg.LockModel)
		}
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, cfg)
			m := e.k.EnableMetrics()
			b := observeProgram()
			t1 := e.spawn(t, b, 10)
			t2 := e.spawnAt(b.Addr("t2"), 10)
			t3 := e.spawnAt(b.Addr("t3"), 10)
			e.run(t, 400_000_000, t1, t2, t3)

			got := snapshotValues(e.k)
			es := e.k.Stats()
			st := &es
			want := map[string]uint64{
				"sched.context_switches":        st.ContextSwitches,
				"sched.timer_irqs":              st.TimerIRQs,
				"sched.ipis":                    st.IPIs,
				"sched.steals":                  st.Steals,
				"sched.preempts.user_boundary":  st.PreemptsUser,
				"sched.preempts.explicit_point": st.PreemptsPoint,
				"sched.preempts.in_kernel":      st.PreemptsKernel,
				"syscall.restarts":              st.Restarts,
				"fault.fatal":                   st.FaultCount[core.FaultKey{Class: mmu.FaultFatal, Side: core.FaultSame}],
				"ipc.fastpath.hits":             st.FastpathHits,
				"ipc.fastpath.misses":           st.FastpathMisses,
				"ipc.fastpath.fallbacks":        st.FastpathFallbacks,
				"ipc.zerocopy.shares":           st.ZeroCopyShares,
				"ipc.zerocopy.cowbreaks":        st.ZeroCopyCOWBreaks,
				"ipc.zerocopy.fallbacks":        st.ZeroCopyFallbacks,
			}
			for i, key := range causeKeys {
				name := core.FaultCauseNames[i]
				want["fault.restarts."+name] = st.FaultCount[key]
				want["fault.rollback_cycles."+name] = st.FaultRollback[key]
				want["fault.remedy_cycles."+name] = st.FaultRemedy[key]
			}
			for _, l := range e.k.LockStats() {
				want["lock.acquires."+l.Name] = l.Acquires
				want["lock.contended."+l.Name] = l.Contended
				want["lock.wait_cycles."+l.Name] = l.WaitCycles
				lockAcquires += l.Acquires
			}
			for name, w := range want {
				if g, ok := got[name]; !ok || g != w {
					t.Errorf("%s = %d (registered %v), source = %d", name, g, ok, w)
				}
			}
			if got["fault.restarts.soft.client"] == 0 {
				t.Error("workload should have produced at least one soft.client restart")
			}
			if got["fault.fatal"] != 1 {
				t.Errorf("fault.fatal = %d, want 1 (thread 3)", got["fault.fatal"])
			}
			if cfg.NumCPUs > 1 && got["sched.ipis"]+got["sched.steals"] == 0 {
				t.Error("2-CPU run recorded no IPIs or steals")
			}

			// Null never blocks, so every dispatch episode completes and is
			// observed by the latency histogram.
			if got, want := m.SyscallLatency[sys.NNull].Count(), st.SyscallsByNum[sys.NNull]; got != want {
				t.Errorf("null latency observations = %d, SyscallsByNum = %d", got, want)
			}
			var observed uint64
			for n := 0; n < sys.NumSyscalls; n++ {
				observed += m.SyscallLatency[n].Count()
			}
			if observed == 0 || observed > st.Syscalls {
				t.Errorf("latency episodes observed = %d, Stats.Syscalls = %d", observed, st.Syscalls)
			}
			if m.Wakes.Value() == 0 {
				t.Error("no wakes counted despite sleep and cond_signal")
			}
			if got := m.ThreadsCreated.Value(); got != 3 {
				t.Errorf("threads.created = %d, want 3", got)
			}
			if got := m.ThreadsLive.Value(); got != 0 {
				t.Errorf("threads.live = %d after all exited, want 0", got)
			}
		})
	}
	if lockAcquires == 0 {
		t.Error("no lock acquires anywhere; the lock.* checks are vacuous")
	}
}

// TestLockHistoryEvictedLive pins lock.history_evicted_live, the count
// of holds the lock model forgot while some CPU's clock was still behind
// their end. With a 2-hold window, eight CPUs sharing the big lock
// forget live holds; one CPU never can, whatever the window, because its
// own clock is already past every hold it released.
func TestLockHistoryEvictedLive(t *testing.T) {
	for _, tc := range []struct {
		cpus     int
		wantLive bool
	}{{8, true}, {1, false}} {
		t.Run(fmt.Sprintf("cpus=%d", tc.cpus), func(t *testing.T) {
			cfg := core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
				NumCPUs: tc.cpus, LockModel: core.LockBig}
			k := runParallelPairsHook(t, cfg, 3, 16, func(k *core.Kernel, _ *obj.Space) func() {
				core.SetHoldWindow(k, 2)
				k.EnableMetrics()
				return nil
			})
			got, ok := snapshotValues(k)["lock.history_evicted_live"]
			if !ok {
				t.Fatal("lock.history_evicted_live is not registered")
			}
			if tc.wantLive && got == 0 {
				t.Errorf("lock.history_evicted_live = 0 at %d CPUs with a 2-hold window, want > 0", tc.cpus)
			}
			if !tc.wantLive && got != 0 {
				t.Errorf("lock.history_evicted_live = %d at 1 CPU, want 0", got)
			}
		})
	}
}
