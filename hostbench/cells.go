package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dev"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/workload"
)

// nsPerCycle converts virtual cycles to virtual nanoseconds.
const nsPerCycle = 1000.0 / clock.CyclesPerMicrosecond

// batch is a closed-batch workload: a fixed list of cells, each a fresh
// kernel running a fixed guest program to completion. A pass runs every
// cell once, in an order the seed permutes.
type batch struct {
	name  string
	cells []cellSpec
}

// cellSpec is one cell. Exactly one of build and scaling is set.
type cellSpec struct {
	name string // unique across workloads: the key of its pins
	key  string // the per-layer span it reports under
	cfg  core.Config
	// build constructs the guest workload on a fresh kernel; ops is its
	// fixed work in the workload's unit (nil: virtual milliseconds run).
	build func(k *core.Kernel) (*workload.Workload, error)
	ops   func() float64
	// sliceCycles is the virtual length of one slowdown slice.
	sliceCycles uint64
	// ckptCycles, when nonzero, takes a warm memory snapshot of the
	// workload's first space every ckptCycles virtual cycles.
	ckptCycles uint64
	// scaling runs an IPC-scaling cell instead of a workload.
	scaling *experiments.ScalingScale
}

// scale sizes every workload; fullScale is the benchmark, smallScale
// keeps the package's tests short.
type scale struct {
	ipcRPCs      int
	memtestBytes uint32
	gcc          workload.GCCScale
	netserve     workload.NetserveScale
	many         experiments.ScalingScale
	manyCPUs     int
}

var fullScale = scale{
	ipcRPCs:      40_000,
	memtestBytes: workload.MemtestBytes,
	gcc:          workload.DefaultGCCScale(),
	netserve:     workload.NetserveScale{Queues: 2, Workers: 4, Clients: 16, RPCs: 32, RespWords: 16384},
	many:         experiments.ScalingScale{Pairs: 64, RPCs: 16},
	manyCPUs:     64,
}

var smallScale = scale{
	ipcRPCs:      200,
	memtestBytes: 256 << 10,
	gcc:          workload.SmallGCCScale(),
	netserve:     workload.SmallNetserveScale(),
	many:         experiments.ScalingScale{Pairs: 4, RPCs: 4},
	manyCPUs:     4,
}

func workloads(sc scale) []*batch {
	ipc := &batch{name: "ipc-paper5"}
	for _, cfg := range core.Configurations() {
		cfg.NumCPUs, cfg.LockModel = 1, core.LockBig
		ipc.cells = append(ipc.cells, cellSpec{
			name: "ipc-paper5/" + cfg.Name(),
			key:  strings.ToLower(strings.ReplaceAll(cfg.Name(), " ", "_")),
			cfg:  cfg,
			build: func(k *core.Kernel) (*workload.Workload, error) {
				return workload.NewFlukeperf(k, workload.FlukeperfScale{
					Nulls: 1, MutexPairs: 1, PingPong: 1, RPCs: sc.ipcRPCs,
					BigWords: 256,
				})
			},
			ops: func() float64 { return float64(sc.ipcRPCs) },
			// 5 virtual ms: a cell spans about 100.
			sliceCycles: 5 * clock.CyclesPerMillisecond,
		})
	}

	interruptPP := core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial, NumCPUs: 1}
	ckpt := &batch{name: "compute-ckpt", cells: []cellSpec{{
		name: "compute-ckpt/memtest", key: "memtest", cfg: interruptPP,
		build: func(k *core.Kernel) (*workload.Workload, error) {
			return workload.NewMemtest(k, sc.memtestBytes)
		},
	}, {
		name: "compute-ckpt/gcc", key: "gcc", cfg: interruptPP,
		build: func(k *core.Kernel) (*workload.Workload, error) { return workload.NewGCC(k, sc.gcc) },
	}}}
	for i := range ckpt.cells {
		// One slice per snapshot interval, so every slice holds exactly
		// one snapshot pause. Shorter slices split into snapshot and
		// compute-only ones, and the median of the compute-only slices
		// follows the host's fast and slow spells.
		ckpt.cells[i].ckptCycles = 10 * clock.CyclesPerMillisecond
		ckpt.cells[i].sliceCycles = ckpt.cells[i].ckptCycles
	}

	netCfg := interruptPP
	netCfg.NumCPUs, netCfg.LockModel = 2, core.LockFine
	ns := sc.netserve
	net := &batch{name: "netload", cells: []cellSpec{{
		name: "netload/netserve", key: "netserve", cfg: netCfg,
		build: func(k *core.Kernel) (*workload.Workload, error) { return workload.NewNetserve(k, ns) },
		ops:   func() float64 { return float64(ns.Queues * ns.Clients * ns.RPCs) },
		// 0.5 virtual ms: a cell spans about 8.
		sliceCycles: clock.CyclesPerMillisecond / 2,
	}}}

	many := &batch{name: "manycore"}
	for _, lm := range []core.LockModel{core.LockBig, core.LockPerSubsystem, core.LockFine} {
		for _, words := range []int{1, 1024} {
			ss := sc.many
			ss.Words = words
			cfg := interruptPP
			cfg.NumCPUs, cfg.LockModel = sc.manyCPUs, lm
			key := fmt.Sprintf("%s.%dw", lm, words)
			many.cells = append(many.cells, cellSpec{
				name: "manycore/" + key, key: key, cfg: cfg, scaling: &ss,
				ops: func() float64 { return float64(ss.Pairs * ss.RPCs) },
			})
		}
	}
	return []*batch{ipc, ckpt, net, many}
}

func workloadByName(name string) (*batch, bool) {
	for _, w := range workloads(fullScale) {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads(fullScale) {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, " | ")
}

// cellResult is what one run of a cell measured.
type cellResult struct {
	name    string
	key     string
	ops     float64
	setupNS int64   // kernel and workload construction
	runNS   int64   // the run, snapshot pauses included
	allocB  uint64  // heap bytes allocated by setup and run
	liveB   uint64  // heap retained by the cell after a forced GC
	virtNS  float64 // virtual time the cell ran
	virt    outputs
	err     error
	tr      *cellTrace // trace mode only
}

// cellTrace is the traced detail of one cell: spans timed around the
// calls into each layer and the counters its public getters expose.
type cellTrace struct {
	kernelNS, workloadNS int64
	elapsed              uint64 // virtual cycles run
	stats                *core.Stats
	locks                [core.NumLockKinds]core.LockStat
	exec                 cpu.ExecStats
	nic                  *dev.NICCounters
	ckpt                 *ckptRun
	restoreNS            int64
	gcCycles             uint64
	gcPauseNS            uint64
}

// runPass runs every cell once in the given order. slices, when non-nil,
// collects the slowdown samples.
func runPass(w *batch, order []int, pins pinSet, slices *[]float64, traced bool) passResult {
	p := passResult{cells: make([]cellResult, 0, len(order))}
	for _, i := range order {
		p.cells = append(p.cells, runCell(&w.cells[i], pins, slices, traced))
	}
	// Scaling cells run to completion without a poll hook, so the whole
	// pass is their one slice.
	if slices != nil && w.cells[0].scaling != nil {
		*slices = append(*slices, p.sum(func(c *cellResult) float64 { return float64(c.runNS) })/
			p.sum(func(c *cellResult) float64 { return c.virtNS }))
	}
	return p
}

func runCell(spec *cellSpec, pins pinSet, slices *[]float64, traced bool) cellResult {
	if spec.scaling != nil {
		return runScalingCell(spec, pins, traced)
	}
	r := cellResult{name: spec.name, key: spec.key}
	if traced {
		r.tr = &cellTrace{}
	}
	runtime.GC()
	base := heapLive()
	a0 := heapAllocated()

	t0 := time.Now()
	k := core.New(spec.cfg)
	t1 := time.Now()
	w, err := spec.build(k)
	t2 := time.Now()
	r.setupNS = t2.Sub(t0).Nanoseconds()
	if r.tr != nil {
		r.tr.kernelNS, r.tr.workloadNS = t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
	}
	if err != nil {
		r.err = fmt.Errorf("setup: %w", err)
		r.ops = spec.nominalOps(pins)
		return r
	}

	var ck *ckptRun
	if spec.ckptCycles > 0 {
		ck = &ckptRun{k: k, s: w.Done[0].Space, interval: spec.ckptCycles, traced: traced}
		ck.next = k.Now() + ck.interval
	}
	sl := slicer{out: slices, length: spec.sliceCycles, v0: k.Now(), h0: time.Now()}
	sl.next = sl.v0 + sl.length
	poll := func() {
		now := k.Now()
		if sl.out != nil && now >= sl.next {
			sl.sample(now)
		}
		if ck != nil && now >= ck.next {
			ck.snapshot(now)
		}
	}
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	t3 := time.Now()
	elapsed, runErr := w.RunPolling(1<<62, poll)
	r.runNS = time.Since(t3).Nanoseconds()
	r.allocB = heapAllocated() - a0
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.tr.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
		r.tr.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	}

	r.virt = outputs{}
	r.virt.add("elapsed_cycles", elapsed)
	st := k.Stats()
	flatten(r.virt, "stats", st)
	flatten(r.virt, "locks", k.LockStats())
	if w.NIC != nil {
		flatten(r.virt, "nic", w.NIC.Counters())
	}
	r.ops = spec.nominalOps(pins)
	if spec.ops == nil && !pins.has(spec.name) {
		r.ops = float64(elapsed) / clock.CyclesPerMillisecond
	}

	runtime.GC()
	live := heapLive()
	r.liveB = live - min(base, live)
	if r.tr != nil {
		r.tr.elapsed = elapsed
		r.tr.stats = &st
		r.tr.locks = k.LockStats()
		r.tr.exec = k.ExecStats()
		if w.NIC != nil {
			c := w.NIC.Counters()
			r.tr.nic = &c
		}
		r.tr.ckpt = ck
	}

	// Correctness, in order of cheapness: the run finished, the guests'
	// own checks pass, virtual outputs match their pins, and a restored
	// checkpoint holds the live memory.
	r.err = runErr
	if r.err == nil && w.Check != nil {
		r.err = w.Check()
	}
	if r.err == nil && ck != nil {
		r.err = ck.err
	}
	if r.err == nil {
		r.err = pins.check(spec.name, r.virt)
	}
	if r.err == nil && ck != nil {
		ns, err := restoreCheck(spec.cfg, k, ck.s, ck.base)
		r.err = err
		if r.tr != nil {
			r.tr.restoreNS = ns
		}
	}
	// Unwind process-model thread contexts, so their goroutines exit
	// and the kernel can be collected before the next cell.
	k.Shutdown()
	return r
}

// nominalOps is the cell's fixed work: from the scale, or for cells
// measured in virtual time from the pinned elapsed cycles, so a cell
// that fails still counts what it should have done.
func (spec *cellSpec) nominalOps(pins pinSet) float64 {
	if spec.ops != nil {
		return spec.ops()
	}
	return float64(pins[spec.name]["elapsed_cycles"]) / clock.CyclesPerMillisecond
}

// runScalingCell runs one IPC-scaling cell. The cell builds its own
// kernel, so set-up is timed as the construction of a kernel of the
// same configuration, kept reachable for the live-heap reading.
func runScalingCell(spec *cellSpec, pins pinSet, traced bool) cellResult {
	r := cellResult{name: spec.name, key: spec.key, ops: spec.ops()}
	if traced {
		r.tr = &cellTrace{}
	}
	runtime.GC()
	base := heapLive()
	a0 := heapAllocated()
	t0 := time.Now()
	k := core.New(spec.cfg)
	r.setupNS = time.Since(t0).Nanoseconds()
	if r.tr != nil {
		r.tr.kernelNS = r.setupNS
	}
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	t1 := time.Now()
	row, err := experiments.IPCScalingCell(spec.cfg.NumCPUs, spec.cfg.LockModel, *spec.scaling)
	r.runNS = time.Since(t1).Nanoseconds()
	r.allocB = heapAllocated() - a0
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.tr.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
		r.tr.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	}
	if err != nil {
		r.err = err
		return r
	}
	r.virtNS = float64(row.Frontier) * nsPerCycle
	r.virt = outputs{}
	r.virt.add("frontier_cycles", row.Frontier)
	r.virt.add("rpcs", uint64(row.RPCs))
	flatten(r.virt, "locks", row.Locks)
	runtime.GC()
	live := heapLive()
	r.liveB = live - min(base, live)
	runtime.KeepAlive(k)
	if r.tr != nil {
		r.tr.elapsed = row.Frontier
		r.tr.locks = row.Locks
	}
	r.err = pins.check(spec.name, r.virt)
	return r
}

// slicer cuts a run into fixed virtual-time slices and records the host
// nanoseconds each took per virtual nanosecond. It reads the host clock
// only at slice boundaries.
type slicer struct {
	out    *[]float64
	length uint64
	v0     uint64
	h0     time.Time
	next   uint64
}

func (s *slicer) sample(now uint64) {
	h := time.Now()
	*s.out = append(*s.out, float64(h.Sub(s.h0))/(float64(now-s.v0)*nsPerCycle))
	s.v0, s.h0, s.next = now, h, now+s.length
}

// ckptRun takes the warm snapshots of one cell, as flukerun -checkpoint
// does: a full memory capture first, deltas against the last image after.
type ckptRun struct {
	k              *core.Kernel
	s              *obj.Space
	interval, next uint64
	traced         bool
	base           *checkpoint.Image
	err            error

	fullNS, deltaNS         []int64
	pauseNS                 int64
	deltaBytes, deltaFrames int
	cleanFrames, snapshots  int
	allocB                  uint64
}

func (c *ckptRun) snapshot(now uint64) {
	c.next = now + c.interval
	if c.err != nil || c.s.Dead {
		return
	}
	var a0 uint64
	if c.traced {
		a0 = heapAllocated()
	}
	t0 := time.Now()
	if c.base == nil {
		img, err := checkpoint.SnapshotMemory(c.k, c.s)
		ns := time.Since(t0).Nanoseconds()
		c.fullNS = append(c.fullNS, ns)
		c.pauseNS += ns
		c.base, c.err = img, err
	} else {
		d, img, err := checkpoint.SnapshotMemoryDelta(c.k, c.s, c.base)
		ns := time.Since(t0).Nanoseconds()
		c.deltaNS = append(c.deltaNS, ns)
		c.pauseNS += ns
		if err != nil {
			c.err = err
			return
		}
		c.base = img
		c.deltaBytes += d.FrameBytes()
		c.deltaFrames += len(d.Frames)
		c.cleanFrames += d.CleanFrames
	}
	c.snapshots++
	if c.traced {
		c.allocB += heapAllocated() - a0
	}
}

// restoreCheck extends the snapshot chain to the end of the run with a
// structural delta capture, restores that image into a fresh kernel and
// compares every mapped page of the restored space with the live one.
// It returns the host time of the restore alone.
func restoreCheck(cfg core.Config, k *core.Kernel, s *obj.Space, parent *checkpoint.Image) (int64, error) {
	var img *checkpoint.Image
	var err error
	if parent == nil {
		img, err = checkpoint.Capture(k, s)
	} else {
		_, img, err = checkpoint.CaptureDelta(k, s, parent)
	}
	if err != nil {
		return 0, fmt.Errorf("final capture: %w", err)
	}
	k2 := core.New(cfg)
	t0 := time.Now()
	s2, _, err := checkpoint.Restore(k2, img)
	ns := time.Since(t0).Nanoseconds()
	if err != nil {
		return ns, fmt.Errorf("restore: %w", err)
	}
	defer k2.Shutdown()
	for _, m := range s.AS.Mappings() {
		if m.Base == core.KObjBase {
			continue
		}
		for va := m.Base; va < m.Base+m.Size; va += mem.PageSize {
			live, errL := k.ReadMem(s, va, int(mem.PageSize))
			got, errR := k2.ReadMem(s2, va, int(mem.PageSize))
			if (errL == nil) != (errR == nil) || !bytes.Equal(live, got) {
				return ns, fmt.Errorf("restored memory differs from the live space at %#x", va)
			}
		}
	}
	return ns, nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// heapAllocated is the cumulative count of heap bytes allocated.
func heapAllocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// heapLive is the heap marked live by the last GC.
func heapLive() uint64 {
	metrics.Read(liveSample)
	return liveSample[0].Value.Uint64()
}
