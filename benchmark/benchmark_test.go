package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeSizes is every phase at about a hundredth of its measured size.
var smokeSizes = sizes{
	jacobiRanks: 4, jacobiCells: 64, jacobiIters: 10,
	fibN:        10,
	streamRanks: 4, collectRecords: 96, followRate: 1000,
	analyzeRanks: 8, analyzeIters: 20,
	segmentBytes: 4 << 20,
}

// TestSmoke runs each workload at small scale with the oracles on: every
// metric the manifest names is reported, finite, and no operation fails.
func TestSmoke(t *testing.T) {
	type variant struct {
		workload string
		traced   bool
	}
	variants := []variant{{"debug-session", false}, {"collect", false}, {"follow", false}, {"analyze", false},
		{"follow", true}, {"analyze", true}}
	for _, v := range variants {
		name := v.workload
		defs := endToEnd
		if v.traced {
			name += "/traced"
			defs = perLayer
		}
		t.Run(name, func(t *testing.T) {
			res, err := run(config{
				workload: v.workload, seed: 7, measure: 600 * time.Millisecond, traced: v.traced,
				sz: smokeSizes, setupReps: 2, scratch: filepath.Join(t.TempDir(), "scratch"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("attempted %d, failed %d, correct %v: %v", res.Attempted, res.Failed, res.Correct, res.Notes)
			}
			for _, d := range defs {
				r, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
					t.Errorf("metric %s: %+v, reported %v", d.Name, r, ok)
				}
				if ok && !v.traced && r.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, r.Value)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%d metrics reported, the manifest names %d", len(res.Metrics), len(defs))
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			if err := json.Unmarshal([]byte(finalLine(res)), &line); err != nil || line.Correct == nil ||
				line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
				t.Errorf("final line %s: %v", finalLine(res), err)
			}
			if v.traced {
				if len(res.Spans) == 0 {
					t.Error("traced run kept no spans")
				}
				for _, p := range phases {
					if len(res.Layers[p.name]) == 0 {
						t.Errorf("no layer table for phase %s", p.name)
					}
				}
			}
		})
	}
}

// TestUnknownWorkload: bad arguments are a harness error, not a result.
func TestUnknownWorkload(t *testing.T) {
	if _, err := run(config{workload: "nope", sz: smokeSizes, scratch: t.TempDir()}); err == nil {
		t.Fatal("run accepted an unknown workload")
	}
}

// TestManifest holds BENCHMARK.json to the tables the program reports from,
// and the tables to the contract's limits.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go; regenerate it with `go run ./benchmark -print-manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef, e2e bool) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the naming rules", d)
		}
		if seen[d.Name] {
			t.Errorf("name %s used twice", d.Name)
		}
		seen[d.Name] = true
		if e2e && (d.Bound <= 0 || d.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if !e2e && d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	for _, d := range endToEnd {
		check(d, true)
	}
	for _, d := range perLayer {
		check(d, false)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if n := len(phases); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, p := range phases {
		if !name.MatchString(p.name) || p.why == "" || len(p.why) > 200 || strings.Contains(p.why, "\n") || seen[p.name] {
			t.Errorf("workload %s: %q", p.name, p.why)
		}
		seen[p.name] = true
	}
	// 4 + 22 runs per workload, five timed set-ups and the build check in
	// each, inside the driver's 3420 s with room for two cold builds.
	runs := 4 + 22*len(phases)
	if total := runs * (runSeconds + 8); total > 3420-300 {
		t.Errorf("%d runs of %d s measuring would take about %d s", runs, runSeconds, total)
	}
}

// forbidden are the entry points ROADMAP item 3 deletes. The benchmark must
// survive those deletions unchanged, so it may reference none of them.
var forbidden = regexp.MustCompile(`^(ReadAll|LoadParallel|LoadFileParallel|LoadSegmented|NewCollector|FromTraceParallel|RunParallel|RunStream)`)

// deprecatedRefs lists the references to deprecated entry points in a Go
// source. Selectors are matched by name: the names above are unambiguous;
// the query executor (*Query).Run(trace) is told from Plan.Run() and
// Instrumenter.Run(cfg, body) by taking exactly one argument.
func deprecatedRefs(fset *token.FileSet, f *ast.File) []string {
	var hits []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if forbidden.MatchString(n.Sel.Name) {
				hits = append(hits, fset.Position(n.Pos()).String()+": "+n.Sel.Name)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" && len(n.Args) == 1 {
				hits = append(hits, fset.Position(n.Pos()).String()+": Run with one argument (the deprecated query executor's shape)")
			}
		}
		return true
	})
	return hits
}

func TestNoDeprecatedEntryPoints(t *testing.T) {
	fset := token.NewFileSet()
	// The checker itself: it must flag each deprecated shape and pass the
	// replacements.
	const probe = `package p
func f() {
	trace.ReadAllPartial(r); trace.LoadParallelSalvage(b); trace.LoadSegmented(p)
	q.Run(tr); q.RunParallel(tr); q.RunStream(n, open); q.RunStreamAll(n, open)
	remote.NewCollectorOptions(a, o); graph.FromTraceParallel(tr, 1)
	q.Plan(src).Run(); in.Run(cfg, body); store.Open(p); graph.FromStream(n, l, open)
}`
	pf, err := parser.ParseFile(fset, "probe.go", probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hits := deprecatedRefs(fset, pf); len(hits) != 9 {
		t.Fatalf("checker flags %d of the 9 deprecated references in the probe: %v", len(hits), hits)
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range deprecatedRefs(fset, f) {
			t.Errorf("%s: on ROADMAP item 3's deletion list", h)
		}
	}
}

// TestNoTuningOverrides: collect and follow run the options as shipped.
func TestNoTuningOverrides(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	tuning := regexp.MustCompile(`\b(Heartbeat|QueueRecords|ManifestEvery|MemLimit|SegmentBytes|Poll)\s*:`)
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if m := tuning.Find(data); m != nil {
			t.Errorf("%s sets %s; the benchmark measures the defaults", name, m)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestLayerSelfTime(t *testing.T) {
	// A 100 ns store span with two overlapping children covering 10..50, and
	// one that never ended.
	rows := layerTable([]span{
		{ID: 1, Name: "store.open", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "trace.decode", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "trace.decode", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "query.run", Start: 60, End: 0},
	})
	want := map[string]float64{"store": 60e-6, "trace": 50e-6}
	if len(rows) != len(want) {
		t.Fatalf("rows %+v", rows)
	}
	for _, r := range rows {
		if math.Abs(r.SelfMs-want[r.Layer]) > 1e-12 {
			t.Errorf("layer %s self %v ms, want %v", r.Layer, r.SelfMs, want[r.Layer])
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]string{50: "", 100: "p90", 250: "p95", 3000: "p99", 10000: "p99.9"} {
		if _, label, _ := tailQuantile(n); label != want {
			t.Errorf("tailQuantile(%d) = %q, want %q", n, label, want)
		}
	}
}
