// Command benchmark is the one reproducible benchmark of the trace pipeline:
// four workloads, fifteen end-to-end metrics, and a traced run that times the
// calls into each layer from outside. README.md in this directory has the
// tables, the commands and the first baseline.
//
//	go run ./benchmark -workload collect -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one run's inputs.
type config struct {
	workload  string
	seed      int64
	measure   time.Duration // --seconds: how long the four phases measure, together
	traced    bool
	sz        sizes
	setupReps int    // set-up is timed this many times; the median is setup_s
	scratch   string // where the run may write; removed afterwards
}

// defs is the metric list this run reports: end-to-end untraced, per-layer
// traced.
func (c config) defs() []metricDef {
	if c.traced {
		return perLayer
	}
	return endToEnd
}

// reported is one metric of a run.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind the value (file and report only)
	// Tail is the highest percentile of the samples that still has ten of
	// them beyond it, as "p95=12.3" (file and report only).
	Tail string `json:"tail,omitempty"`
}

// result is one run's output. The contract's final line carries Correct,
// Attempted, Failed and Metrics; the files under benchmark/out carry it all.
type result struct {
	Meta      meta                  `json:"_meta"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]reported   `json:"metrics"`
	Notes     []string              `json:"notes,omitempty"`
	Layers    map[string][]layerRow `json:"layers,omitempty"` // traced: per phase
	Spans     []span                `json:"spans,omitempty"`  // traced
	// TracedEndToEnd is what the end-to-end metrics read with tracing on:
	// for reading the per-layer numbers against, never for comparing runs.
	TracedEndToEnd map[string]reported `json:"traced_end_to_end,omitempty"`
}

// phase is one of the four measured parts of a run; the workload's name
// selects which of them gets subjectShare of the time.
type phase struct {
	name   string
	why    string // BENCHMARK.json's one line on why the workload exists
	run    func(c *corpus, tr *tracer, budget time.Duration) *phaseOut
	layers func(c *corpus, tr *tracer, out *phaseOut) // traced only: the layers one at a time
	// first is the phase's first end-to-end timing, the one
	// harness.trace_overhead_share compares traced against untraced.
	first string
}

var phases = []phase{
	{"debug-session", "the paper's loop on a live target: instr, mp, the trace write codec, causality and debug/replay do all the work; the bypass for every collector or reader change",
		debugSessionPhase, debugSessionLayers, "record_ns_per_event"},
	{"collect", "tcollect -daemon as shipped, one burst session at a time: remote (window, acks, wire, spill) and the segment writer with its sidecar seal do the work, readers none",
		collectPhase, collectLayers, "drain_s"},
	{"follow", "same write path paced at 1000 records/s with a tail reading beside it: latency, not throughput, so an ingest gain bought with batching shows as worse deliver_ms",
		followPhase, nil, "deliver_ms_p50"},
	{"analyze", "cold one-shot reads of a finalized session store: store, the trace decoders, query, graph and analysis do all the work, nothing is written; the bypass for every remote change",
		analyzePhase, analyzeLayers, "load_ms_p25"},
}

// budgets splits the measuring time: subjectShare to the workload's own
// phase, the rest equally to the other three, which run so that every
// metric is reported by every workload.
func budgets(workload string, measure time.Duration) map[string]time.Duration {
	b := make(map[string]time.Duration, len(phases))
	for _, p := range phases {
		share := (1 - subjectShare) / float64(len(phases)-1)
		if p.name == workload {
			share = subjectShare
		}
		b[p.name] = time.Duration(share * float64(measure))
	}
	return b
}

// run executes one workload and returns what it measured. The error is for
// a broken harness (bad arguments, set-up failed, scratch unwritable), never
// for a slow or wrong program: that is Failed and Correct.
func run(cfg config) (*result, error) {
	known := false
	for _, p := range phases {
		known = known || p.name == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.scratch)

	budget := budgets(cfg.workload, cfg.measure)
	rate := time.Second / time.Duration(cfg.sz.followRate)
	need := max(cfg.sz.collectRecords, int(budget["follow"]/rate)) + 1
	c, setupTimes, err := timedSetUp(cfg.sz, cfg.seed, cfg.scratch, need, cfg.setupReps)
	if err != nil {
		return nil, err
	}

	res := &result{
		Meta:    readMeta(cfg.workload, cfg.seed, int(cfg.measure.Seconds()), cfg.traced),
		Metrics: map[string]reported{},
	}
	total := newPhaseOut()
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		res.Layers = map[string][]layerRow{}
	}
	mem0 := memStats()
	for _, p := range phases {
		runtime.GC() // every phase starts from a collected heap
		b := budget[p.name]
		var untraced *phaseOut
		if cfg.traced && p.name == cfg.workload {
			// The traced run measures its own phase twice, tracing off then
			// on: the difference is what the spans cost.
			b /= 2
			untraced = p.run(c, nil, b)
			runtime.GC()
		}
		from := tr.len()
		out := p.run(c, tr, b)
		if cfg.traced {
			if p.layers != nil {
				p.layers(c, tr, out)
			}
			res.Layers[p.name] = layerTable(tr.spans[from:])
			if untraced != nil {
				u, _, uok := untraced.value(p.first)
				t, _, tok := out.value(p.first)
				if uok && tok && u > 0 {
					out.set("harness.trace_overhead_share", t/u-1, 1)
				}
				total.mergeOutcome(untraced)
			}
		}
		total.merge(out)
	}
	if total.harness != nil {
		return nil, total.harness
	}
	mem1 := memStats()

	total.set("setup_s", setupTimes.median(), len(setupTimes))
	if cfg.traced {
		total.set("proc.peak_rss_mb", peakRSSMB(), 1)
		total.set("proc.alloc_mb", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20), 1)
		total.set("proc.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, 1)
		for name, v := range layerShares(res.Layers) {
			total.set(name, v, 1)
		}
		res.Spans = tr.spans
	}
	for _, d := range cfg.defs() {
		if r, ok := total.reported(d); ok {
			res.Metrics[d.Name] = r
		} else {
			total.notes = append(total.notes, "no value for "+d.Name)
		}
	}
	if cfg.traced {
		res.TracedEndToEnd = map[string]reported{}
		for _, d := range endToEnd {
			if r, ok := total.reported(d); ok {
				res.TracedEndToEnd[d.Name] = r
			}
		}
	}
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = !total.incorrect
	res.Notes = total.notes
	return res, nil
}

// reported resolves one metric of the tables from what the phases measured.
func (o *phaseOut) reported(d metricDef) (reported, bool) {
	v, n, ok := o.value(d.Name)
	if !ok {
		return reported{}, false
	}
	r := reported{Value: v, Unit: d.Unit, N: n}
	if smp := o.samples[d.Name]; len(smp) > 0 {
		if q, label, ok := tailQuantile(len(smp)); ok {
			r.Tail = fmt.Sprintf("%s=%.4g", label, smp.quantile(q))
		}
	}
	return r, true
}

// layerShares is how well the phases separate the layers: the named layers'
// share of the busy (self) time of one phase's spans, harness spans left out.
func layerShares(layers map[string][]layerRow) map[string]float64 {
	share := func(phase string, of ...string) float64 {
		var busy, part float64
		for _, r := range layers[phase] {
			if r.Layer == "harness" {
				continue
			}
			busy += r.SelfMs
			for _, l := range of {
				if r.Layer == l {
					part += r.SelfMs
				}
			}
		}
		if busy == 0 {
			return 0
		}
		return part / busy
	}
	return map[string]float64{
		"share.debug-session.remote":  share("debug-session", "remote"),
		"share.debug-session.readers": share("debug-session", "store", "query", "graph"),
		"share.collect.readers":       share("collect", "store", "query", "graph"),
		"share.analyze.remote":        share("analyze", "remote"),
	}
}

// report prints the run for a person: every metric by name with its unit
// and sample count, the failed operations and why, the per-layer table.
func report(w io.Writer, res *result, defs []metricDef) {
	m := res.Meta
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  traced %v\n", m.Workload, m.Seed, m.Seconds, m.Traced)
	fmt.Fprintf(w, "_meta: nproc %d  GOMAXPROCS %d  %s  cpu %q  commit %s\n", m.NProc, m.GOMAXPROCS, m.GoVersion, m.CPUModel, m.Commit)
	for _, d := range defs {
		if r, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-42s %14.4f %-6s n=%-6d %s\n", d.Name, r.Value, r.Unit, r.N, r.Tail)
		}
	}
	if len(res.TracedEndToEnd) > 0 {
		fmt.Fprintln(w, "  end-to-end metrics as they read with tracing on (to read the layers against, not to compare):")
		for _, d := range endToEnd {
			if r, ok := res.TracedEndToEnd[d.Name]; ok {
				fmt.Fprintf(w, "    %-40s %14.4f %-6s n=%d\n", d.Name, r.Value, r.Unit, r.N)
			}
		}
	}
	for _, p := range phases {
		if rows := res.Layers[p.name]; len(rows) > 0 {
			fmt.Fprintf(w, "  layers of %s (self ms / total ms / spans):", p.name)
			for _, r := range rows {
				fmt.Fprintf(w, "  %s %.1f/%.1f/%d", r.Layer, r.SelfMs, r.TotalMs, r.Spans)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed, outputs correct: %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// writeOut saves the full result next to the benchmark: <workload>.json for
// an untraced run, <workload>.trace.json (spans and per-layer table) for a
// traced one.
func writeOut(res *result) error {
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := res.Meta.Workload + ".json"
	if res.Meta.Traced {
		name = res.Meta.Workload + ".trace.json"
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// finalLine is the contract's last line of standard output.
func finalLine(res *result) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for k, r := range res.Metrics {
		out.Metrics[k] = metric{r.Value, r.Unit}
	}
	data, _ := json.Marshal(out) // plain numbers, strings and bools: cannot fail
	return string(data)
}

// quartiles are Python's statistics.quantiles(values, n=4), the spread the
// benchmark's acceptance is judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := samples(values).sorted()
	n := len(xs)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// repeat runs the workload n times on consecutive seeds, each in a process of
// its own as the driver does (a second run in one process inherits the
// first one's heap), and prints, per metric, min/median/max and whether the
// spread between the quartiles, as a share of the median, is inside the
// metric's bound.
func repeat(cfg config, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		seed := cfg.seed + int64(i)
		cmd := exec.Command(self, "-workload", cfg.workload, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(int(cfg.measure.Seconds())), "-trace", trace)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d: last line: %w", i+1, err)
		}
		fmt.Printf("run %d/%d seed %d: %d attempted, %d failed, correct %v\n", i+1, n, seed, res.Attempted, res.Failed, res.Correct)
		for k, r := range res.Metrics {
			values[k] = append(values[k], r.Value)
		}
	}
	fmt.Printf("%-42s %12s %12s %12s %8s %6s\n", "metric", "min", "median", "max", "spread", "bound")
	for _, d := range cfg.defs() {
		v := values[d.Name]
		if len(v) < 2 {
			continue
		}
		xs := samples(v).sorted()
		q1, q2, q3 := quartiles(v)
		spread := (q3 - q1) / q2
		verdict := ""
		if d.Bound > 0 {
			verdict = "inside"
			if spread > d.Bound {
				verdict = "OUTSIDE"
			} else if spread > d.Bound/3 {
				verdict = "inside, above a third"
			}
		}
		fmt.Printf("%-42s %12.4f %12.4f %12.4f %7.2f%% %5.0f%% %s\n", d.Name, xs[0], q2, xs[len(xs)-1], 100*spread, 100*d.Bound, verdict)
	}
	return nil
}

func main() {
	names := make([]string, len(phases))
	for i, p := range phases {
		names[i] = p.name
	}
	workload := flag.String("workload", "", "one of: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed the inputs are made from")
	seconds := flag.Int("seconds", runSeconds, "how long the run measures")
	traced := flag.Int("trace", 0, "1: record spans and report the per-layer metrics; 0: report the end-to-end metrics")
	reps := flag.Int("repeat", 0, "run this many times on consecutive seeds and print each metric's spread")
	printManifest := flag.Bool("print-manifest", false, "print BENCHMARK.json as the metric and workload tables define it, and exit")
	flag.Parse()
	if *printManifest {
		os.Stdout.Write(manifestJSON()) //nolint:errcheck // stdout
		return
	}
	if flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name> -seed <n> -seconds <n> -trace <0|1> [-repeat <n>]")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, sz: defaultSizes, setupReps: 5,
		scratch: filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
	}
	if *reps > 0 {
		if err := repeat(cfg, *reps); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	report(os.Stdout, res, cfg.defs())
	if err := writeOut(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(finalLine(res))
}

// runSeconds is BENCHMARK.json's run_seconds: with 4 + 22 x 4 runs, three
// timed set-ups each and two cold builds, it keeps the whole series inside
// the driver's cap.
const runSeconds = 20

// manifestJSON renders BENCHMARK.json from the tables in metrics.go, so the
// file the driver reads and the numbers the program prints cannot drift
// apart (a unit test compares them).
func manifestJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // no bounds: omitted
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, p := range phases {
		m.Workloads = append(m.Workloads, workload{p.name, p.why})
	}
	data, _ := json.MarshalIndent(m, "", "  ") // plain strings and numbers: cannot fail
	return append(data, '\n')
}
