// Package obs is the debugger's self-observability layer. The paper treats
// the monitor's own perturbation of the target as a first-class quantity
// (Table 1 reports 1.08–1.65x slowdowns for the uinst/PMPI strategies), and
// a trace pipeline that answers "where did the time and bytes go" about
// target programs should answer the same question about itself. This package
// provides the pieces:
//
//   - a dependency-free metrics registry (Registry) with counters, gauges
//     and histograms whose hot-path increments are a single atomic add,
//     rank-sharded onto padded cache lines exactly like the trace pipeline's
//     own write path, so instrumenting the instrumenter stays cheap;
//   - a structured event log (EventLog): leveled, JSON-line, rate-limited
//     per event name so a reconnect storm cannot flood a terminal;
//   - snapshot exposition (expo.go) as a JSON document and as Prometheus
//     text format, served live with net/http/pprof by http.go.
//
// Metric instances are nil-safe: every mutation method is a no-op on a nil
// receiver, and the constructors of a Nop() registry return nil. Packages
// therefore instrument unconditionally and pay nothing (one predictable
// branch) when observability is disabled.
//
// Naming scheme: tracedbg_<subsystem>_<name>[_total|_bytes|_ns], following
// Prometheus conventions — *_total for monotonic counters, base units in the
// suffix. Subsystems mirror the package names: instr, trace, remote, query,
// replay, fault, mp.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// NumShards is the number of padded cells in sharded metrics. Ranks map onto
// cells by masking, so any rank count works; it is a power of two.
const NumShards = 64

// info is the identity common to all metric types.
type info struct {
	name string
	help string
}

// metric is implemented by every registered metric type.
type metric interface {
	meta() info
	// snap appends the metric's current state (one entry, or one per label
	// for vectors) to dst.
	snap(dst []MetricSnapshot) []MetricSnapshot
}

// Registry holds named metrics. The zero value is not usable; create with
// NewRegistry (or use Default). Registration is get-or-create: asking twice
// for the same name returns the same instance, so package-level metric sets
// can be rebuilt freely. Registering one name as two different types panics —
// that is a programming error, not a runtime condition.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
	nop     bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// Nop returns a registry whose constructors return nil metrics: every
// increment against them is a no-op. Benchmarks use it to measure the cost
// of instrumentation itself.
func Nop() *Registry { return &Registry{nop: true} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that package-level
// instrumentation registers into and the CLIs expose.
func Default() *Registry { return defaultRegistry }

// register implements get-or-create for all constructors. make builds the
// metric if the name is free.
func register[M metric](r *Registry, name string, make func() M) M {
	var zero M
	if r == nil || r.nop {
		return zero
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		typed, ok := m.(M)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
		}
		return typed
	}
	m := make()
	r.metrics[name] = m
	return m
}

// Counter registers (or returns) a monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, func() *Counter { return &Counter{info: info{name, help}} })
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, func() *Gauge { return &Gauge{info: info{name, help}} })
}

// ShardedCounter registers (or returns) a rank-sharded counter: increments
// land on the caller's own padded cache line (a single atomic add with no
// cross-rank contention) and the exported value is the sum over cells.
func (r *Registry) ShardedCounter(name, help string) *ShardedCounter {
	return register(r, name, func() *ShardedCounter { return &ShardedCounter{info: info{name, help}} })
}

// ShardedGauge registers (or returns) a rank-sharded gauge (signed deltas;
// the exported value is the sum over cells).
func (r *Registry) ShardedGauge(name, help string) *ShardedGauge {
	return register(r, name, func() *ShardedGauge { return &ShardedGauge{info: info{name, help}} })
}

// Histogram registers (or returns) a histogram over non-negative integer
// values with power-of-two buckets (observe = two atomic adds).
func (r *Registry) Histogram(name, help string) *Histogram {
	return register(r, name, func() *Histogram { return &Histogram{info: info{name, help}} })
}

// CounterVec registers (or returns) a family of counters distinguished by
// one label (e.g. fault injections by rule). Children are created on first
// use and cached; With is mutex-guarded, so vectors belong on cold paths.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return register(r, name, func() *CounterVec {
		return &CounterVec{info: info{name, help}, label: label, children: make(map[string]*Counter)}
	})
}

// Snapshot returns a point-in-time copy of every registered metric, sorted
// by name (then label value). Concurrent increments during the snapshot are
// either included or not — each cell is read atomically, the set is not a
// global consistent cut, which is the usual and sufficient contract.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil || r.nop {
		return s
	}
	r.mu.Lock()
	ms := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	for _, m := range ms {
		s.Metrics = m.snap(s.Metrics)
	}
	sort.Slice(s.Metrics, func(i, j int) bool {
		a, b := &s.Metrics[i], &s.Metrics[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.LabelValue < b.LabelValue
	})
	return s
}

// --- metric types ----------------------------------------------------------

// Counter is a monotonic counter: a single atomic cell, right for low-rate
// events (reconnects, fallbacks). All methods are nil-safe.
type Counter struct {
	info
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) meta() info { return c.info }
func (c *Counter) snap(dst []MetricSnapshot) []MetricSnapshot {
	return append(dst, MetricSnapshot{Name: c.name, Help: c.help, Type: TypeCounter, Value: float64(c.v.Load())})
}

// Gauge is a settable signed value.
type Gauge struct {
	info
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) meta() info { return g.info }
func (g *Gauge) snap(dst []MetricSnapshot) []MetricSnapshot {
	return append(dst, MetricSnapshot{Name: g.name, Help: g.help, Type: TypeGauge, Value: float64(g.v.Load())})
}

// cell is one padded counter cell: 8 bytes of value plus padding so adjacent
// ranks' cells never share a cache line (the same false-sharing discipline
// as trace.ShardedWriter's shards).
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

type signedCell struct {
	v atomic.Int64
	_ [56]byte
}

// ShardedCounter spreads increments across NumShards padded cells keyed by
// rank, so concurrent rank goroutines never contend on one cache line.
type ShardedCounter struct {
	info
	cells [NumShards]cell
}

// Inc adds 1 to the rank's cell — a single uncontended atomic add.
func (c *ShardedCounter) Inc(rank int) {
	if c != nil {
		c.cells[uint(rank)&(NumShards-1)].v.Add(1)
	}
}

// Add adds n to the rank's cell.
func (c *ShardedCounter) Add(rank int, n uint64) {
	if c != nil {
		c.cells[uint(rank)&(NumShards-1)].v.Add(n)
	}
}

// Value sums all cells.
func (c *ShardedCounter) Value() uint64 {
	if c == nil {
		return 0
	}
	var n uint64
	for i := range c.cells {
		n += c.cells[i].v.Load()
	}
	return n
}

func (c *ShardedCounter) meta() info { return c.info }
func (c *ShardedCounter) snap(dst []MetricSnapshot) []MetricSnapshot {
	return append(dst, MetricSnapshot{Name: c.name, Help: c.help, Type: TypeCounter, Value: float64(c.Value())})
}

// ShardedGauge is ShardedCounter with signed deltas — occupancy-style values
// incremented on one code path and decremented on another (e.g. buffered
// bytes: +delta on write, -chunk on flush).
type ShardedGauge struct {
	info
	cells [NumShards]signedCell
}

// Add adds d (may be negative) to the rank's cell.
func (g *ShardedGauge) Add(rank int, d int64) {
	if g != nil {
		g.cells[uint(rank)&(NumShards-1)].v.Add(d)
	}
}

// Value sums all cells.
func (g *ShardedGauge) Value() int64 {
	if g == nil {
		return 0
	}
	var n int64
	for i := range g.cells {
		n += g.cells[i].v.Load()
	}
	return n
}

func (g *ShardedGauge) meta() info { return g.info }
func (g *ShardedGauge) snap(dst []MetricSnapshot) []MetricSnapshot {
	return append(dst, MetricSnapshot{Name: g.name, Help: g.help, Type: TypeGauge, Value: float64(g.Value())})
}

// histBuckets is one bucket per possible bit length of a uint64 (0..64):
// bucket i counts observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i) for i >= 1 and v == 0 for i == 0. Exponential buckets cover
// the full byte/nanosecond range with no configuration.
const histBuckets = 65

// Histogram records a distribution of non-negative integer values.
type Histogram struct {
	info
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value: two atomic adds.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations: the sum of the buckets, so it
// can never disagree with them.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

func (h *Histogram) meta() info { return h.info }
func (h *Histogram) snap(dst []MetricSnapshot) []MetricSnapshot {
	ms := MetricSnapshot{Name: h.name, Help: h.help, Type: TypeHistogram, Sum: float64(h.sum.Load())}
	// Each bucket is loaded once, and Count is their total: the exposition's
	// _count is its +Inf bucket even while writers are observing.
	var counts [histBuckets]uint64
	top := 0
	for i := range counts {
		if counts[i] = h.buckets[i].Load(); counts[i] != 0 {
			top = i
		}
	}
	for i := 0; i <= top; i++ {
		ms.Count += counts[i]
		// Upper bound of bucket i is 2^i - 1 (bucket 0 holds only zeros).
		le := uint64(1)<<uint(i) - 1
		ms.Buckets = append(ms.Buckets, Bucket{LE: float64(le), Count: ms.Count})
	}
	return append(dst, ms)
}

// CounterVec is a family of counters keyed by one label value.
type CounterVec struct {
	info
	label    string
	mu       sync.Mutex
	children map[string]*Counter
}

// With returns the child counter for a label value, creating it on first
// use. Children are plain Counters (their own name/help are unused).
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{info: v.info}
		v.children[value] = c
	}
	return c
}

func (v *CounterVec) meta() info { return v.info }
func (v *CounterVec) snap(dst []MetricSnapshot) []MetricSnapshot {
	v.mu.Lock()
	defer v.mu.Unlock()
	for val, c := range v.children {
		dst = append(dst, MetricSnapshot{Name: v.name, Help: v.help, Type: TypeCounter,
			LabelKey: v.label, LabelValue: val, Value: float64(c.v.Load())})
	}
	return dst
}
