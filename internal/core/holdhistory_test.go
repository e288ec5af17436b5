package core

import (
	"math/rand"
	"testing"
)

// holdRing is the fixed ring of hold intervals that holdHistory
// replaced, kept as its exactness oracle: the last len(spans)
// nonzero-length holds, overwritten in publish order and scanned until a
// pass changes nothing. evictedLive counts overwritten spans that still
// ended after the frontier.
type holdRing struct {
	spans       []holdSpan
	next        int
	evictedLive uint64
}

func (r *holdRing) clearUntil(now uint64) uint64 {
	for {
		hit := false
		for i := range r.spans {
			if s := &r.spans[i]; s.from <= now && now < s.until {
				now = s.until
				hit = true
			}
		}
		if !hit {
			return now
		}
	}
}

func (r *holdRing) publish(from, until, frontier uint64) {
	if until <= from {
		return
	}
	if r.spans[r.next].until > frontier {
		r.evictedLive++
	}
	r.spans[r.next] = holdSpan{from: from, until: until}
	r.next = (r.next + 1) % len(r.spans)
}

// holdFuzzWindows are the windows a fuzz input picks from: the 1–4 CPU
// ring, 16×5 CPUs, 16×64 CPUs, and tiny ones that wrap on every few
// holds.
var holdFuzzWindows = []int{64, 80, 1024, 1, 2, 3, 7}

// maxFuzzHolds bounds the holds one fuzz input publishes: enough to wrap
// the 1024 window twice.
const maxFuzzHolds = 2048

// holdCover is what one run of runHoldHistory exercised.
type holdCover struct {
	contended   int    // queries answered later than asked
	evictedLive uint64 // spans evicted above the frontier
	wrapped     bool   // more holds published than the window holds
}

// runHoldHistory drives a holdHistory and the ring oracle with the same
// publishes and queries, decoded from data, and fails on the first
// answer or eviction count that differs. Byte 0 picks the window, byte 1
// the CPU count (1–64); each later op byte picks an operation and a CPU
// and consumes one argument byte. CPU clocks only move forward, every
// query is at some CPU's clock, and the frontier passed to publish is
// their minimum — the kernel's contract. An input stops after
// maxFuzzHolds holds, which keeps one run within milliseconds.
func runHoldHistory(t *testing.T, data []byte) (cov holdCover) {
	if len(data) < 2 {
		return cov
	}
	window := holdFuzzWindows[int(data[0])%len(holdFuzzWindows)]
	clks := make([]uint64, 1+int(data[1])%64)
	data = data[2:]
	h := holdHistory{window: uint64(window)}
	ring := holdRing{spans: make([]holdSpan, window)}
	frontier := func() uint64 {
		f := clks[0]
		for _, c := range clks[1:] {
			f = min(f, c)
		}
		return f
	}
	query := func(cpu int) {
		now := clks[cpu]
		got, want := h.clearUntil(now), ring.clearUntil(now)
		if got != want {
			t.Fatalf("window %d, %d CPUs: clearUntil(%d) = %d, ring scan says %d",
				window, len(clks), now, got, want)
		}
		if got > now {
			cov.contended++
		}
		clks[cpu] = got // a contended acquire spins to the release
	}
	holds := 0
	hold := func(cpu int, length uint64) {
		holds++
		query(cpu)
		from := clks[cpu]
		clks[cpu] += length
		f := frontier()
		h.publish(from, clks[cpu], frontier)
		ring.publish(from, clks[cpu], f)
		if h.evictedLive != ring.evictedLive {
			t.Fatalf("window %d, %d CPUs: evictedLive = %d, ring counts %d",
				window, len(clks), h.evictedLive, ring.evictedLive)
		}
		if cap(h.live) > 2*window || cap(h.order) > 2*window {
			t.Fatalf("window %d: history capacity %d/%d exceeds twice the window",
				window, cap(h.live), cap(h.order))
		}
	}
	for len(data) >= 2 && holds < maxFuzzHolds {
		op, arg := data[0], uint64(data[1])
		data = data[2:]
		cpu := int(op>>3) % len(clks)
		switch op % 8 {
		case 0, 1: // run user code: the clock moves, nothing is held
			clks[cpu] += arg * 16
		case 2, 3: // a hold, zero-length when arg is 0
			hold(cpu, arg)
		case 4: // query exactly at the frontier
			lo := 0
			for i, c := range clks {
				if c < clks[lo] {
					lo = i
				}
			}
			query(lo)
		case 5: // query exactly at maxUntil, and just below it
			if m := h.maxUntil; m > 0 && clks[cpu] < m {
				clks[cpu] = m - min(m-clks[cpu], arg%2)
			}
			query(cpu)
		case 6: // a burst of holds round-robin, enough to wrap 1024
			for i := 0; i <= int(arg)*8 && holds < maxFuzzHolds; i++ {
				c := (cpu + i) % len(clks)
				hold(c, uint64(1+(i*37+int(arg))%50))
				clks[c] += uint64(i % 5)
			}
		case 7: // every CPU queries
			for i := range clks {
				query(i)
			}
		}
	}
	cov.evictedLive = h.evictedLive
	cov.wrapped = h.published > h.window
	return cov
}

// holdSeeds is the seed corpus: random op streams over every window
// and a spread of CPU counts, plus hand-made edge cases.
func holdSeeds() [][]byte {
	seeds := [][]byte{
		{0, 0, 2, 5, 2, 0, 3, 9, 5, 0, 4, 0},          // 1 CPU: maxUntil and frontier
		{3, 1, 2, 10, 10, 40, 2, 0, 4, 0, 5, 1, 7, 0}, // window 1, 2 CPUs, zero-length hold
		{2, 63, 6, 255, 7, 0, 5, 0, 4, 0},             // window 1024 wraps at 64 CPUs
		{1, 4, 6, 40, 14, 3, 7, 0, 6, 40, 5, 0, 4, 0}, // window 80
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3*len(holdFuzzWindows); i++ {
		ncpus := []byte{0, 1, 3, 7, 15, 63}[i%6]
		b := []byte{byte(i % len(holdFuzzWindows)), ncpus}
		for j := 0; j < 200; j++ {
			b = append(b, byte(rng.Intn(256)), byte(rng.Intn(64)))
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzHoldHistory pins holdHistory to the ring scan it replaced: every
// contention answer and the evicted-live count must match, for any
// interleaving of holds and queries by up to 64 CPUs with monotone
// clocks. The seed corpus runs under plain go test.
func FuzzHoldHistory(f *testing.F) {
	for _, s := range holdSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runHoldHistory(t, data) })
}

// TestHoldSeedsCover keeps the seed corpus from going vacuous: across
// it, queries must be contended, spans must be evicted above the
// frontier, and every window — 1024 included — must wrap.
func TestHoldSeedsCover(t *testing.T) {
	var contended int
	var evictedLive uint64
	wrapped := map[int]bool{}
	for _, s := range holdSeeds() {
		cov := runHoldHistory(t, s)
		contended += cov.contended
		evictedLive += cov.evictedLive
		if cov.wrapped {
			wrapped[holdFuzzWindows[int(s[0])%len(holdFuzzWindows)]] = true
		}
	}
	if contended == 0 || evictedLive == 0 {
		t.Errorf("seed corpus: %d contended queries, %d live evictions; want both > 0", contended, evictedLive)
	}
	for _, w := range holdFuzzWindows {
		if !wrapped[w] {
			t.Errorf("seed corpus never wraps window %d", w)
		}
	}
}

// TestLockAcquireReleaseAllocs pins the steady-state cost of the lock
// model's bookkeeping: once the hold history has grown to its working
// size, an acquire/release pair allocates nothing — at 1 CPU, and at
// 64 CPUs under the big lock, where every CPU contends for one slot.
func TestLockAcquireReleaseAllocs(t *testing.T) {
	for _, n := range []int{1, 64} {
		k := New(Config{Model: ModelInterrupt, Preempt: PreemptPartial, NumCPUs: n, LockModel: LockBig})
		i := 0
		pair := func() {
			c := k.cpus[i%n]
			c.clk.Advance(uint64(i * 7919 % 5000)) // user work between entries
			k.lockAcquireSlot(c, slotBig)
			c.clk.Advance(uint64(1 + i%300))
			k.lockReleaseSlot(c, slotBig)
			i++
		}
		for j := 0; j < 20_000; j++ {
			pair()
		}
		if allocs := testing.AllocsPerRun(2_000, pair); allocs != 0 {
			t.Errorf("%d CPUs: lock acquire/release allocates %.2f objects per pair, want 0", n, allocs)
		}
		if n > 1 && k.vlocks[slotBig].contended == 0 {
			t.Errorf("%d CPUs: no contended acquire; the test exercises only the watermark", n)
		}
	}
}
