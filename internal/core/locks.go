package core

// The multiprocessor locking models (Config.LockModel). Locks here are
// *virtual*: they serialize simulated kernel execution in virtual time
// rather than host execution. Each lock remembers its recent hold
// intervals (holdHistory); a CPU whose local clock lands inside one
// acquires by spinning — its clock advances to the release point and the
// spin cycles are charged as kernel time. With one CPU a lock can never
// be busy (the same clock both records and tests the holds), so every
// acquire is free and the NumCPUs==1 timeline is bit-identical to the
// uniprocessor kernel under any model — pinned by the multicpu tests.
//
// Locks are *slots* in a kernel-wide table. The first four slots are the
// classic subsystem locks (sched, obj, mmu, big); the fine-grained model
// (LockFine) appends one slot per run queue and, in deterministic mode,
// one obj/mmu slot pair per space, so disjoint CPUs and spaces stop
// contending. Every slot carries its subsystem *kind*, which is what
// feeds the lock.* metrics and LockStats — the fine model fans a kind out
// across many instances but reports in the same four-row shape.
//
// Lock order (deadlock discipline, enforced by construction):
//
//	big  (outermost; the BigLock mapping of everything)
//	obj  (kernel entry for syscalls) | mmu (kernel entry for faults)
//	sched (innermost; run queues and resched flags)
//
// obj and mmu are never nested: a handler that faults returns KFault, the
// syscall epilogue releases obj, and only then does doFault take mmu.
// Within the fine model's sched kind, multi-queue paths (steal, remove)
// hold at most one extra queue lock at a time while scanning, so instance
// order never matters; the two-space zero-copy share takes its two mmu
// instances in ascending slot order.
//
// Blocking releases: a kernel path that parks (block, yieldCPU, the FP
// in-kernel park) releases every lock its CPU holds first — the classic
// "sleep releases the kernel lock" rule — and the process model reacquires
// on resume via a snapshot kept on the parked goroutine's own stack. In
// the interrupt model the unwind discards the snapshot and the next
// kernel entry reacquires from scratch.
//
// In ParallelHost mode the host gate (parallel.go) serializes kernel
// sections, so the virtual spin waits are disabled (wall-clock
// interleaving, not virtual-time modeling, decides contention there); the
// acquire counters and the lock-hold histogram still run, always under
// the gate's kernel mutex, so lock.* is reported in that mode too.

import (
	"repro/internal/obj"
	"repro/internal/profile"
)

// lockID names one kernel lock *kind*.
type lockID uint8

const (
	lockSched lockID = iota // run queues, resched flags
	lockObj                 // object space: syscall-entry lock
	lockMMU                 // address spaces: fault-entry lock
	lockBig                 // the big kernel lock (LockBig maps everything here)
	numLocks
)

// The fixed lock-table slots, one per kind, in lockID order. The fine
// model appends instance slots after these.
const (
	slotSched = int(lockSched)
	slotObj   = int(lockObj)
	slotMMU   = int(lockMMU)
	slotBig   = int(lockBig)

	numFixedSlots = int(numLocks)
)

// NumLockKinds is the number of distinct kernel lock kinds (for metrics).
const NumLockKinds = int(numLocks)

// LockKindNames are the lock names in lockID order.
var LockKindNames = [NumLockKinds]string{"sched", "obj", "mmu", "big"}

// lockHistory is the hold-history window at the classic CPU counts: a
// lock remembers its last lockHistory published holds, and the hold
// published lockHistory holds ago is forgotten when the next one lands.
// The rule and the sizes are fixed: every seed and pinned virtual output
// was recorded under them. The serial interleaver bounds cross-CPU clock
// skew to roughly one dispatch episode, so only the holds of the last
// few episodes can overlap an acquirer's local time. Forgetting a
// still-relevant hold errs toward *less* contention, so the window is
// sized generously relative to the holds one episode performs, and
// scaled with the CPU count past 4 CPUs (holdWindow), where a shared
// slot can see a full system's worth of holds between one CPU's turns.
// lock.history_evicted_live counts the holds forgotten while some CPU's
// clock was still behind their end.
const lockHistory = 64

// holdWindow returns the hold-history window for a kernel with ncpus
// processors.
func holdWindow(ncpus int) int {
	if ncpus <= 4 {
		return lockHistory
	}
	return 16 * ncpus
}

// holdSpan is one completed [from, until) hold of a lock in virtual
// time; seq numbers it in publish order, from 1.
type holdSpan struct {
	from, until uint64
	seq         uint64
}

// holdHistory answers the contention query for one lock: the earliest
// time at or after an acquirer's clock that none of the lock's last
// `window` published holds covers. The answer depends only on the set
// of remembered spans, not on the order they are looked at, so the
// history keeps just the spans that can still change an answer, and a
// query costs in proportion to them rather than to the window:
//
//   - maxUntil bounds the end of every span kept; an acquirer at or past
//     it is uncontended without looking at a span. At one CPU that is
//     every acquire.
//   - floor is a low frontier: a time at or below every CPU's clock.
//     CPU clocks only move forward and every acquire queries at its own
//     CPU's clock, so a span ending at or before floor can never cover
//     a future query. Such spans are dropped when the lists fill up
//     (compact), so the lists hold about the spans above the frontier,
//     never more than twice the window.
//   - live is kept sorted by from, so one forward sweep answers a query
//     (clearUntil). order keeps the same spans in publish order: the
//     spans the window forgets are a prefix of it, which is what makes
//     each eviction O(1) to notice (lock.history_evicted_live). An
//     evicted span stays in live, skipped by its seq, until the next
//     compaction.
//
// The frontier comes in as a function, evaluated only at compaction and
// at the eviction of a span still above the last floor seen.
type holdHistory struct {
	live      []holdSpan // sorted by from
	order     []holdSpan // publish order; order[:head] has left the window
	head      int
	window    uint64 // holds remembered (holdWindow)
	published uint64 // holds published so far; the newest has seq == published
	maxUntil  uint64 // no span kept ends after this
	floor     uint64 // at or below every CPU clock when last read

	// evictedLive counts spans that left the window while still above
	// the frontier: contention the lock model stopped seeing.
	evictedLive uint64
}

// clearUntil returns the earliest time >= now at which no remembered hold
// covers the clock — the moment a spinning CPU would get the lock.
//
// One sweep in from order suffices: now only grows, so a span passed
// over because it ended at or before now never covers it later, and once
// a span starts after now every later one does too.
func (h *holdHistory) clearUntil(now uint64) uint64 {
	if now >= h.maxUntil {
		return now
	}
	cut := h.published - min(h.published, h.window) // seq <= cut: forgotten
	for i := range h.live {
		s := &h.live[i]
		if s.from > now {
			break
		}
		if now < s.until && s.seq > cut {
			now = s.until
		}
	}
	return now
}

// publish remembers the hold [from, until) and forgets the one that
// leaves the window. Zero-length holds are not remembered (no clock can
// land inside one) and do not count toward the window. frontier returns
// a time at or below every CPU's current clock.
func (h *holdHistory) publish(from, until uint64, frontier func() uint64) {
	if until <= from {
		return
	}
	h.published++
	for h.head < len(h.order) && h.order[h.head].seq+h.window <= h.published {
		if u := h.order[h.head].until; u > h.floor {
			h.floor = max(h.floor, frontier())
			if u > h.floor {
				h.evictedLive++
			}
		}
		h.head++
	}
	if len(h.live) == cap(h.live) {
		h.compact(frontier())
	}
	s := holdSpan{from: from, until: until, seq: h.published}
	h.order = append(h.order, s)
	// Insert in from order. Spans arrive nearly in that order (the
	// interleaver runs the slowest CPU), so the shift is short.
	i := len(h.live)
	h.live = append(h.live, s)
	for ; i > 0 && h.live[i-1].from > from; i-- {
		h.live[i] = h.live[i-1]
	}
	h.live[i] = s
	h.maxUntil = max(h.maxUntil, until)
}

// compact drops the spans that left the window or end at or before the
// frontier from both lists, and doubles their capacity (up to twice the
// window) while more than half of it is still in use, so appends between
// compactions pay for the pass.
func (h *holdHistory) compact(frontier uint64) {
	h.floor = max(h.floor, frontier)
	cut := h.published - min(h.published, h.window)
	h.live = h.keep(h.live, cut)
	h.order, h.head = h.keep(h.order, cut), 0
	h.maxUntil = 0
	for _, s := range h.live {
		h.maxUntil = max(h.maxUntil, s.until)
	}
}

// keep filters spans in place to those in the window and above the
// floor, growing the slice's capacity per compact's rule.
func (h *holdHistory) keep(spans []holdSpan, cut uint64) []holdSpan {
	n := 0
	for _, s := range spans {
		if s.seq > cut && s.until > h.floor {
			spans[n] = s
			n++
		}
	}
	spans = spans[:n]
	if c := min(max(2*cap(spans), 8), 2*int(h.window)); 2*n >= cap(spans) && c > cap(spans) {
		grown := make([]holdSpan, n, c)
		copy(grown, spans)
		spans = grown
	}
	return spans
}

// vlock is one virtual lock slot: its hold history plus contention
// counters. Access is serialized by the deterministic scheduler loop or
// by the ParallelHost gate's kernel mutex.
//
// Intervals — not just the last release time — matter because the serial
// interleaver is coarse: one dispatch can run a CPU's clock far ahead of
// its peers before they get a turn. A peer whose local clock is still
// behind the last release time did not necessarily contend — if no hold
// covered its local instant the lock was free then; the skew is an
// artifact of simulation order, not of simulated time. Contention is
// charged exactly when the acquirer's clock lands inside a remembered
// hold, which is when a real CPU would have spun.
type vlock struct {
	hist       holdHistory
	acquires   uint64
	contended  uint64
	waitCycles uint64
}

// LockStat is one lock's contention counters, as reported by LockStats.
type LockStat struct {
	Name       string
	Acquires   uint64
	Contended  uint64
	WaitCycles uint64
}

// initLockTable builds the fixed slots plus, under the fine model, the
// per-run-queue instance slots. Per-space instances are appended later,
// as spaces are created (newSpaceInternal).
func (k *Kernel) initLockTable() {
	window := holdWindow(len(k.cpus))
	k.vlocks = make([]vlock, 0, numFixedSlots+len(k.cpus))
	k.lockKinds = make([]lockID, 0, cap(k.vlocks))
	k.lockNames = make([]string, 0, cap(k.vlocks))
	for id := lockID(0); id < numLocks; id++ {
		k.addLockSlot(id, LockKindNames[id], window)
	}
	if k.cfg.LockModel == LockFine {
		for _, c := range k.cpus {
			k.addLockSlot(lockSched, "runq"+itoa(c.id), window)
		}
	}
}

// addLockSlot appends one lock instance of the given kind, growing every
// CPU's hold-tracking arrays to match. Growing mid-run is safe in the
// deterministic modes (single-threaded); ParallelHost never grows the
// table after New (it uses the fixed obj/mmu slots — see fineSpaceLocks).
func (k *Kernel) addLockSlot(kind lockID, name string, window int) int {
	slot := len(k.vlocks)
	k.vlocks = append(k.vlocks, vlock{hist: holdHistory{window: uint64(window)}})
	k.lockKinds = append(k.lockKinds, kind)
	k.lockNames = append(k.lockNames, name)
	for _, c := range k.cpus {
		for len(c.holds) < len(k.vlocks) {
			c.holds = append(c.holds, 0)
			c.lockSince = append(c.lockSince, 0)
		}
	}
	return slot
}

// fineSpaceLocks reports whether spaces get their own obj/mmu lock
// instances: fine model, deterministic mode only. ParallelHost keeps the
// lock table fixed after New — per-space slots would grow every CPU's
// hold arrays while other host goroutines read them — and host-level
// concurrency, not the virtual-time model, decides contention there
// anyway.
func (k *Kernel) fineSpaceLocks() bool {
	return k.cfg.LockModel == LockFine && k.par == nil
}

// itoa is a dependency-free strconv.Itoa for small non-negative ints
// (lock slot names; avoids importing strconv into the hot-path file).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// LockStats returns the per-kind acquire/contention counters in
// LockKindNames order. Under LockBig only the "big" row moves; under
// LockPerSubsystem the "big" row stays zero; under LockFine each row sums
// that kind's instances (per-queue, per-space).
func (k *Kernel) LockStats() [NumLockKinds]LockStat {
	var out [NumLockKinds]LockStat
	for i := range out {
		out[i].Name = LockKindNames[i]
	}
	for i := range k.vlocks {
		o := &out[k.lockKinds[i]]
		o.Acquires += k.vlocks[i].acquires
		o.Contended += k.vlocks[i].contended
		o.WaitCycles += k.vlocks[i].waitCycles
	}
	return out
}

// FineLockStats returns one row per lock *instance* (slot), in slot
// order — "sched", "obj", ..., "runq3", "obj.s1" — for the fine model's
// per-instance contention breakdown. Rows with zero acquires are
// included; callers filter.
func (k *Kernel) FineLockStats() []LockStat {
	out := make([]LockStat, len(k.vlocks))
	for i := range k.vlocks {
		out[i] = LockStat{
			Name:       k.lockNames[i],
			Acquires:   k.vlocks[i].acquires,
			Contended:  k.vlocks[i].contended,
			WaitCycles: k.vlocks[i].waitCycles,
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Slot resolution.

// slotForID maps a lock kind to the slot the acting CPU c should take
// under the configured model. Under the fine model the scheduler kind
// resolves to c's own run-queue instance and the obj/mmu kinds to the
// current thread's space instances; paths that act on *another* queue or
// space resolve explicitly (runqSlot, spaceObjSlot, spaceMMUSlot).
func (k *Kernel) slotForID(c *CPU, id lockID) int {
	switch k.cfg.LockModel {
	case LockBig:
		return slotBig
	case LockFine:
		switch id {
		case lockSched:
			return numFixedSlots + c.id
		case lockObj:
			if t := c.current; t != nil {
				return k.spaceObjSlot(t.Space)
			}
		case lockMMU:
			if t := c.current; t != nil {
				return k.spaceMMUSlot(t.Space)
			}
		}
		return int(id)
	default:
		return int(id)
	}
}

// runqSlot returns the lock slot guarding CPU cpuID's run queue.
func (k *Kernel) runqSlot(cpuID int) int {
	if k.cfg.LockModel == LockFine {
		return numFixedSlots + cpuID
	}
	if k.cfg.LockModel == LockBig {
		return slotBig
	}
	return slotSched
}

// spaceObjSlot returns the object-space lock slot for s.
func (k *Kernel) spaceObjSlot(s *obj.Space) int {
	if k.cfg.LockModel == LockBig {
		return slotBig
	}
	if k.cfg.LockModel == LockFine && s != nil && s.LockSlot != 0 {
		return s.LockSlot
	}
	return slotObj
}

// spaceMMUSlot returns the MMU lock slot for s.
func (k *Kernel) spaceMMUSlot(s *obj.Space) int {
	if k.cfg.LockModel == LockBig {
		return slotBig
	}
	if k.cfg.LockModel == LockFine && s != nil && s.LockSlot != 0 {
		return s.LockSlot + 1
	}
	return slotMMU
}

// ---------------------------------------------------------------------------
// Acquire / release.

// lockAcquireSlot takes the lock in the given slot on behalf of CPU c.
// Re-acquisition by the same CPU nests (a refcount). A contended acquire
// spins: the CPU's clock advances to the lock's release time and the wait
// is charged as kernel cycles.
func (k *Kernel) lockAcquireSlot(c *CPU, slot int) {
	if c.holds[slot] > 0 {
		c.holds[slot]++
		return
	}
	vl := &k.vlocks[slot]
	vl.acquires++
	if k.par == nil {
		now := c.clk.Now()
		if free := vl.hist.clearUntil(now); free > now {
			wait := free - now
			vl.contended++
			vl.waitCycles += wait
			c.stats.KernelCycles += wait
			c.clk.Advance(wait)
			k.profCharge(c, c.current, profile.PathLockSpin, wait)
		}
	}
	c.holds[slot] = 1
	c.lockSince[slot] = c.clk.Now()
	c.held = append(c.held, int32(slot))
}

// lockReleaseSlot drops one nesting level of the lock in slot, publishing
// the hold interval when the outermost level unlocks.
func (k *Kernel) lockReleaseSlot(c *CPU, slot int) {
	if c.holds[slot] == 0 {
		panic("core: lockRelease of unheld lock " + k.lockNames[slot])
	}
	c.holds[slot]--
	if c.holds[slot] > 0 {
		return
	}
	now := c.clk.Now()
	if k.Metrics != nil {
		k.Metrics.LockHoldCycles[k.lockKinds[slot]].Observe(now - c.lockSince[slot])
	}
	// Publish this hold so later (possibly clock-behind) acquirers spin
	// past it.
	if k.par == nil {
		k.vlocks[slot].hist.publish(c.lockSince[slot], now, k.lockFrontier)
	}
	// Drop slot from the held list (near-LIFO in practice; scan from top).
	for i := len(c.held) - 1; i >= 0; i-- {
		if c.held[i] == int32(slot) {
			c.held = append(c.held[:i], c.held[i+1:]...)
			break
		}
	}
}

// lockFrontier is the hold histories' low frontier: the minimum CPU
// clock. Every clock is monotone and every acquire queries at its CPU's
// clock, so no later query can fall below it.
func (k *Kernel) lockFrontier() uint64 {
	f := k.cpus[0].clk.Now()
	for _, c := range k.cpus[1:] {
		f = min(f, c.clk.Now())
	}
	return f
}

// lockAcquire takes (the model's slot for) lock kind id on behalf of c.
func (k *Kernel) lockAcquire(c *CPU, id lockID) {
	k.lockAcquireSlot(c, k.slotForID(c, id))
}

// lockRelease drops one nesting level of (the model's slot for) kind id.
// Acquire/release pairs must resolve to the same slot: paths where the
// current thread can change mid-hold use the slot API directly.
func (k *Kernel) lockRelease(c *CPU, id lockID) {
	k.lockReleaseSlot(c, k.slotForID(c, id))
}

// releaseHeld drops every lock the acting CPU still holds — the idempotent
// end-of-episode epilogue. Paths that parked already released (parkRelease),
// so this is a no-op for them; paths that completed or died release here.
func (k *Kernel) releaseHeld() {
	c := k.cur
	for len(c.held) > 0 {
		slot := int(c.held[len(c.held)-1])
		c.holds[slot] = 1 // collapse nesting: the episode is over
		k.lockReleaseSlot(c, slot)
	}
}

// maxHeldSlots bounds how many distinct lock instances one kernel episode
// can hold at once (entry lock + own queue + one remote queue + slack).
const maxHeldSlots = 8

// lockSnap is a parkRelease snapshot: the held slots and their nesting
// counts. It lives on the parked goroutine's stack — threads migrate
// across CPUs between park and resume, so it must not live on the CPU.
type lockSnap struct {
	n     int
	slots [maxHeldSlots]int32
	count [maxHeldSlots]int16
}

// parkRelease releases everything the acting CPU holds before a park,
// returning the snapshot a process-model resume reacquires from.
func (k *Kernel) parkRelease() lockSnap {
	c := k.cur
	var snap lockSnap
	for len(c.held) > 0 {
		slot := int(c.held[len(c.held)-1])
		if snap.n == maxHeldSlots {
			panic("core: parkRelease: too many held lock slots")
		}
		snap.slots[snap.n] = int32(slot)
		snap.count[snap.n] = c.holds[slot]
		snap.n++
		c.holds[slot] = 1
		k.lockReleaseSlot(c, slot)
	}
	return snap
}

// parkReacquire restores a parkRelease snapshot on whatever CPU the
// thread resumed on, paying contention there if the lock moved on.
// Snapshots are slot-resolved, so a fine-model instance reacquires the
// same instance even if the thread's notion of "its" queue changed.
func (k *Kernel) parkReacquire(snap lockSnap) {
	c := k.cur
	for i := snap.n - 1; i >= 0; i-- {
		slot := int(snap.slots[i])
		k.lockAcquireSlot(c, slot)
		c.holds[slot] = snap.count[i]
	}
}
