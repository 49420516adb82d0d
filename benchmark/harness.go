package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"tracedbg/internal/obs"
)

// --- samples ----------------------------------------------------------------

// samples is one metric's per-cycle (or per-record) measurements.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of s; NaN when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	xs := s.sorted()
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median interpolates between the two middle samples of an even-sized set,
// so that a metric with few cycles does not jump between neighbours.
func (s samples) median() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	xs := s.sorted()
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func (s samples) mean() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// tailQuantile is the highest of p90/p95/p99/p99.9 that still has at least
// ten samples beyond it; ok is false when even p90 has not.
func tailQuantile(n int) (q float64, label string, ok bool) {
	for _, c := range []struct {
		beyond float64 // share of the samples above the percentile
		label  string
	}{{0.001, "p99.9"}, {0.01, "p99"}, {0.05, "p95"}, {0.10, "p90"}} {
		if float64(n)*c.beyond >= 10 {
			return 1 - c.beyond, c.label, true
		}
	}
	return 0, "", false
}

// --- deadlines --------------------------------------------------------------

// waitUntil polls cond until it holds or the deadline passes. Every wait in
// the harness goes through a bounded call like this one: a stalled pipeline
// becomes failed operations, never a hung benchmark.
func waitUntil(deadline, poll time.Duration, cond func() bool) bool {
	end := time.Now().Add(deadline)
	for {
		if cond() {
			return true
		}
		if time.Now().After(end) {
			return false
		}
		time.Sleep(poll)
	}
}

// --- spans ------------------------------------------------------------------

// span is one call from the benchmark into a layer's public function.
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Op     int    `json:"op"`     // shared by all spans of one cycle or record batch
	Name   string `json:"name"`   // layer.call
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer records
// nothing, which is how the untraced run stays untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates the identifier the spans of one cycle share.
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// start opens a span and returns its id for end and for child spans.
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// len is how many spans have been opened so far.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerOf is the module a span name belongs to ("store.open" -> "store").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerRow is one line of the per-layer table of a traced run.
type layerRow struct {
	Layer   string  `json:"layer"`
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"total_ms"` // sum of span durations
	SelfMs  float64 `json:"self_ms"`  // minus the part child spans cover
}

// layerTable computes every layer's self time: a span's duration minus the
// part of its interval covered by its child spans (children of one parent
// may overlap when they ran on different goroutines, so the cover is a
// union, not a sum).
func layerTable(spans []span) []layerRow {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		if s.End < s.Start {
			continue // never ended: the call it wrapped failed
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		r := rows[layerOf(s.Name)]
		if r == nil {
			r = &layerRow{Layer: layerOf(s.Name)}
			rows[r.Layer] = r
		}
		r.Spans++
		r.TotalMs += float64(s.End-s.Start) / 1e6
		r.SelfMs += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// --- counters the program already keeps -------------------------------------

// counters is obs.Default() flattened: one number per metric name, label
// children summed. Per-layer counts are before/after deltas of these; the
// benchmark adds no counter inside the program.
type counters map[string]float64

func readCounters() counters {
	c := make(counters)
	for _, m := range obs.Default().Snapshot().Metrics {
		if m.Type == obs.TypeHistogram {
			c[m.Name] += float64(m.Count)
			continue
		}
		c[m.Name] += m.Value
	}
	return c
}

// since returns how much the named counter grew after the earlier reading.
func (c counters) since(before counters, name string) float64 { return c[name] - before[name] }

// --- process-level numbers --------------------------------------------------

// memStats reads the allocator's totals. It stops the world, so it is called
// between operations, never inside a timed one.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// cpuNow is the process's user + system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // as above
	return float64(ru.Maxrss) / 1024
}

// --- _meta ------------------------------------------------------------------

// meta is the block every output carries so two result files can be told
// apart (or told to be comparable) without the shell history that made them.
type meta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readMeta(workload string, seed int64, seconds int, traced bool) meta {
	m := meta{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The toolchain stamps the revision only when it builds inside a git
	// work tree; an exported checkout reads "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				m.Commit = s.Value
			}
		}
	}
	return m
}
