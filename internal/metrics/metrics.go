// Package metrics is the kernel's first-class measurement layer: a
// registry of named counters, gauges, and fixed-bucket log2-cycle
// histograms. Every instrument is allocated at registration time and
// updated in place, so the hot paths never allocate; a kernel with no
// registry attached pays exactly one nil-check branch per would-be
// update (verified by the benchmarks in this package).
//
// Histograms bucket virtual-cycle values by bit length (bucket i holds
// values in [2^(i-1), 2^i)), which keeps Observe to a handful of
// instructions while still answering p50/p95/p99 questions to within a
// factor of two — plenty for the order-of-magnitude spreads the paper's
// tables care about (Table 6 spans three orders of magnitude).
//
// Like the rest of the simulation, the registry is single-threaded by
// construction and is not safe for concurrent use.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/clock"
	"repro/internal/stats"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Set replaces the count. It is for counters derived from an event count
// kept elsewhere, which a collector (Registry.OnCollect) copies in.
func (c *Counter) Set(v uint64) { c.v = v }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous level that can move both ways (live threads,
// frames in use).
type Gauge struct {
	v int64
}

// Set replaces the level.
func (g *Gauge) Set(v int64) { g.v = v }

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v += d }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// NumBuckets is the number of log2 histogram buckets: bucket 0 holds the
// value 0, bucket i (1..64) holds values in [2^(i-1), 2^i).
const NumBuckets = 65

// Histogram accumulates uint64 samples (virtual cycles, by convention)
// into log2 buckets, tracking exact count, sum, min, and max.
type Histogram struct {
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [NumBuckets]uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the smallest sample, or 0 with none.
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest sample, or 0 with none.
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the exact mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// Quantile returns an upper bound for the q-th quantile (q in 0..1) by
// nearest rank: the top of the log2 bucket holding that rank, clamped to
// the observed max.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= rank {
			if i == 0 {
				return 0
			}
			top := uint64(1)<<uint(i) - 1
			if top > h.max {
				top = h.max
			}
			return top
		}
	}
	return h.max
}

// Registry names and owns a set of instruments. Registration (the
// Counter/Gauge/Histogram methods) allocates; updates through the
// returned pointers never do.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func()
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// OnCollect registers f to run at the start of every Snapshot — and so
// of every Render and Prometheus export — before any instrument is read.
// Instruments whose source of truth is counted elsewhere (kernel Stats,
// lock counters, device counters) are filled by such a collector, so no
// exporter can see a stale value.
func (r *Registry) OnCollect(f func()) { r.collectors = append(r.collectors, f) }

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string
	Value uint64
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string
	Value int64
}

// HistSnap is one histogram in a snapshot; the quantiles are cycle
// values (upper bounds, see Histogram.Quantile).
type HistSnap struct {
	Name          string
	Count         uint64
	MeanCycles    float64
	MinCycles     uint64
	P50, P95, P99 uint64
	MaxCycles     uint64
}

// Snapshot is a stable, name-sorted copy of every instrument's state.
type Snapshot struct {
	Counters   []CounterSnap
	Gauges     []GaugeSnap
	Histograms []HistSnap
}

// Snapshot runs the collectors and captures the registry. The result is
// deterministic: sorted by name within each instrument kind.
func (r *Registry) Snapshot() Snapshot {
	for _, f := range r.collectors {
		f()
	}
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, HistSnap{
			Name:       name,
			Count:      h.Count(),
			MeanCycles: h.Mean(),
			MinCycles:  h.Min(),
			P50:        h.Quantile(0.50),
			P95:        h.Quantile(0.95),
			P99:        h.Quantile(0.99),
			MaxCycles:  h.Max(),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// CounterTable renders the snapshot's counters and gauges (zero-valued
// ones omitted) as a fixed-width table.
func (s Snapshot) CounterTable(title string) *stats.Table {
	t := stats.NewTable(title, "counter", "value")
	for _, c := range s.Counters {
		if c.Value == 0 {
			continue
		}
		t.Row(c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		if g.Value == 0 {
			continue
		}
		t.Row(g.Name+" (gauge)", g.Value)
	}
	return t
}

// HistogramTable renders the snapshot's non-empty histograms with
// cycle values converted to microseconds of virtual time.
func (s Snapshot) HistogramTable(title string) *stats.Table {
	t := stats.NewTable(title, "histogram", "count", "mean µs", "p50 µs", "p95 µs", "p99 µs", "max µs")
	for _, h := range s.Histograms {
		if h.Count == 0 {
			continue
		}
		t.Row(h.Name, h.Count,
			clock.Micros(uint64(h.MeanCycles)),
			clock.Micros(h.P50),
			clock.Micros(h.P95),
			clock.Micros(h.P99),
			clock.Micros(h.MaxCycles))
	}
	return t
}

// Render returns both tables of a snapshot of r, skipping empty
// sections — the flukerun -metrics output.
func (r *Registry) Render(title string) string {
	s := r.Snapshot()
	var b strings.Builder
	if ct := s.CounterTable(title + " — counters"); len(ct.Rows()) > 0 {
		b.WriteString(ct.String())
	}
	if ht := s.HistogramTable(title + " — latency histograms"); len(ht.Rows()) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(ht.String())
	}
	if b.Len() == 0 {
		return title + ": no metrics recorded\n"
	}
	return b.String()
}
