package main

import (
	"fmt"
	"math"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// The tables below are the source; a unit test holds BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the pipeline sees. Every run reports all of
// them: the workload's own phase supplies its metrics from most of the run,
// the other phases supply theirs from a short pass (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	// debug-session
	{"record_ns_per_event", "ns", "lower", 0.10},
	{"record_slowdown_x", "x", "lower", 0.20},
	{"replay_to_stopline_ms_p50", "ms", "lower", 0.15},
	// collect
	{"ingest_records_per_s", "1/s", "higher", 0.10},
	{"drain_s", "s", "lower", 0.10},
	{"disk_bytes_per_record", "bytes", "lower", 0.01},
	{"collect_cpu_us_per_record", "us", "lower", 0.20},
	// follow
	{"deliver_ms_p50", "ms", "lower", 0.10},
	{"deliver_ms_p99", "ms", "lower", 0.10},
	{"follow_cpu_us_per_record", "us", "lower", 0.25},
	// analyze
	{"load_ms_p25", "ms", "lower", 0.25},
	{"query_bounded_ms_p50", "ms", "lower", 0.10},
	{"query_scan_ms_p50", "ms", "lower", 0.10},
	{"graph_ms_p50", "ms", "lower", 0.25},
}

// perLayer is what the traced run reports: each is timed or counted by the
// benchmark around a public call, or read as a before/after delta of the
// counters the program already keeps.
var perLayer = []metricDef{
	{Name: "instr.fn_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "instr.sink_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "instr.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "mp.bare_run_ms", Unit: "ms", Better: "lower"},
	{Name: "mp.msgs", Unit: "count", Better: "lower"},
	{Name: "trace.encode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "trace.segment_write_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.index_seal_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.chunks", Unit: "count", Better: "lower"},
	{Name: "trace.fsyncs", Unit: "count", Better: "lower"},
	{Name: "trace.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "remote.client.emit_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "remote.client.flush_us_p50", Unit: "us", Better: "lower"},
	{Name: "remote.client.close_s", Unit: "s", Better: "lower"},
	{Name: "remote.window_stalls", Unit: "count", Better: "lower"},
	{Name: "remote.acks", Unit: "count", Better: "higher"},
	{Name: "remote.daemon.finalize_ms", Unit: "ms", Better: "lower"},
	{Name: "remote.follow.window_stalls", Unit: "count", Better: "lower"},
	{Name: "remote.emit_to_durable_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "remote.emit_to_durable_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "store.tail.durable_to_delivered_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.tail.durable_to_delivered_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "store.tail.polls_per_record", Unit: "count", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.materialize_ms", Unit: "ms", Better: "lower"},
	{Name: "store.index_available_share", Unit: "share", Better: "higher"},
	{Name: "store.index_records_per_match", Unit: "count", Better: "lower"},
	{Name: "store.cursor_records", Unit: "count", Better: "lower"},
	{Name: "query.compile_us", Unit: "us", Better: "lower"},
	{Name: "query.run_bounded_ms", Unit: "ms", Better: "lower"},
	{Name: "query.run_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "query.records_evaluated_per_match", Unit: "count", Better: "lower"},
	{Name: "graph.build_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "graph.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "analysis.traffic_ms", Unit: "ms", Better: "lower"},
	{Name: "causality.order_ms", Unit: "ms", Better: "lower"},
	{Name: "causality.stopline_ms", Unit: "ms", Better: "lower"},
	{Name: "debug.record_ms", Unit: "ms", Better: "lower"},
	{Name: "debug.replay_launch_ms", Unit: "ms", Better: "lower"},
	{Name: "debug.wait_stopped_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.gen_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "harness.trace_overhead_share", Unit: "share", Better: "lower"},
	// How well the phases separate the layers: a layer's share of the busy
	// (self) time of the spans of one phase.
	{Name: "share.debug-session.remote", Unit: "share", Better: "lower"},
	{Name: "share.debug-session.readers", Unit: "share", Better: "lower"},
	{Name: "share.collect.readers", Unit: "share", Better: "lower"},
	{Name: "share.analyze.remote", Unit: "share", Better: "lower"},
}

// The phase a workload names gets subjectShare of --seconds; the other three
// share the rest equally.
const subjectShare = 0.55

// phaseOut is what one phase measured.
type phaseOut struct {
	samples   map[string]samples // per-cycle measurements, reported as their median
	values    map[string]float64 // reported as they are: ratios of medians, percentiles, counts
	counts    map[string]int     // how many samples stand behind a value
	attempted int
	failed    int
	notes     []string // why operations failed
	incorrect bool     // some output differed from its reference
	harness   error    // the benchmark itself broke; the run exits non-zero
}

func newPhaseOut() *phaseOut {
	return &phaseOut{samples: map[string]samples{}, values: map[string]float64{}, counts: map[string]int{}}
}

func (o *phaseOut) add(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

func (o *phaseOut) set(name string, v float64, n int) { o.values[name], o.counts[name] = v, n }

// fail counts n operations that missed their deadline or returned an error.
func (o *phaseOut) fail(n int, format string, args ...any) {
	o.failed += n
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// wrong counts n operations whose output differed from the reference.
func (o *phaseOut) wrong(n int, format string, args ...any) {
	o.incorrect = true
	o.fail(n, format, args...)
}

func (o *phaseOut) broke(err error) {
	if o.harness == nil {
		o.harness = err
	}
}

// value resolves a metric: a set value wins, else the median of its samples.
func (o *phaseOut) value(name string) (v float64, n int, ok bool) {
	if v, ok := o.values[name]; ok {
		return v, o.counts[name], true
	}
	if s, ok := o.samples[name]; ok && len(s) > 0 {
		return s.median(), len(s), true
	}
	return math.NaN(), 0, false
}

// merge folds another phase's output into o.
func (o *phaseOut) merge(p *phaseOut) {
	for k, v := range p.samples {
		o.samples[k] = append(o.samples[k], v...)
	}
	for k, v := range p.values {
		o.values[k], o.counts[k] = v, p.counts[k]
	}
	o.mergeOutcome(p)
}

// mergeOutcome folds in another pass's operation counts and failures but
// none of its measurements.
func (o *phaseOut) mergeOutcome(p *phaseOut) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.notes = append(o.notes, p.notes...)
	o.incorrect = o.incorrect || p.incorrect
	if p.harness != nil {
		o.broke(p.harness)
	}
}
