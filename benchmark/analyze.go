package main

import (
	"io"
	"reflect"
	"runtime"
	"slices"
	"time"

	"tracedbg/internal/analysis"
	"tracedbg/internal/graph"
	"tracedbg/internal/query"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// A cycle loads five times and counts the mean of the last four; the phase
// reports the lower quartile of its cycles. Both choices are against one
// thing: the load allocates 25 MB in 20 ms, a page fault costs 1.6 us in this
// sandbox, and for a second or two at a time (the first cycles after the idle
// phases before this one, and now and then later) every load reads 50 to
// 100 % high. The first load after a graph build pays for memory the collector
// had just handed back and is left out; the lower quartile leaves out the
// disturbed cycles, which a median over five cycles does not. What is left is
// the loader's own time, which is what later changes move.
const loadsPerCycle = 5

// analyzePhase is post-mortem analysis of one finalized session store, one
// caller, closed loop. Every operation is cold, as a one-shot CLI pays it:
// store.OpenMmap, the work, Close. Reads are page-cache reads.
func analyzePhase(c *corpus, tr *tracer, budget time.Duration) *phaseOut {
	out := newPhaseOut()
	var loadCycles samples
	for cycle, end := 0, time.Now().Add(budget); cycle == 0 || time.Now().Before(end); cycle++ {
		op := tr.op()
		root := tr.start("harness.cycle", op, 0)
		var loads, bounded samples
		for i := 0; i < loadsPerCycle; i++ {
			if d, ok := analyzeLoad(c, tr, op, root, out); ok {
				loads = append(loads, d)
			}
		}
		if len(loads) == loadsPerCycle {
			loadCycles = append(loadCycles, loads[1:].mean())
		}
		for i := range c.floors {
			if d, ok := analyzeQuery(c, tr, op, root, boundedQuery(c.floors[i]), c.boundedWant[i], "query.run_bounded_ms", out); ok {
				bounded = append(bounded, d)
			}
		}
		if len(bounded) == boundedQueries {
			// The mean of the cycle's five: their floors are seed-chosen but
			// their decode work adds up to the same for every seed.
			out.add("query_bounded_ms_p50", bounded.mean())
		}
		if d, ok := analyzeQuery(c, tr, op, root, scanQuery, c.scanWant, "query.run_scan_ms", out); ok {
			out.add("query_scan_ms_p50", d)
		}
		analyzeGraph(c, tr, op, root, out)
		analyzeTraffic(c, tr, op, root, out)
		tr.end(root)
	}
	if len(loadCycles) > 0 {
		out.set("load_ms_p25", loadCycles.quantile(0.25), len(loadCycles))
	}
	return out
}

// coldStart collects the heap before an operation is timed. A one-shot CLI
// starts from an empty heap; without this, where in its pacing the collector
// happens to be when an operation starts is the largest part of the
// run-to-run spread of the allocation-heavy ones (load: 8 % down to 3 %).
func coldStart() time.Time {
	runtime.GC()
	return time.Now()
}

// openStore is the cold open every analyze operation starts with.
func openStore(c *corpus, tr *tracer, op, parent int, out *phaseOut) (*store.Store, bool) {
	sp := tr.start("store.open", op, parent)
	st, err := store.OpenMmap(c.analyzeManifest)
	tr.end(sp)
	if err != nil {
		out.fail(1, "open %s: %v", c.analyzeManifest, err)
		return nil, false
	}
	return st, true
}

func closeStore(st *store.Store, tr *tracer, op, parent int, out *phaseOut) bool {
	sp := tr.start("store.close", op, parent)
	err := st.Close()
	tr.end(sp)
	if err != nil {
		out.fail(1, "close store: %v", err)
	}
	return err == nil
}

// analyzeLoad is open, full Store.Trace() load, close; it returns the whole
// operation's milliseconds.
func analyzeLoad(c *corpus, tr *tracer, op, parent int, out *phaseOut) (float64, bool) {
	out.attempted++
	t0 := coldStart()
	st, ok := openStore(c, tr, op, parent, out)
	if !ok {
		return 0, false
	}
	sp := tr.start("store.trace", op, parent)
	t1 := time.Now()
	got, err := st.Trace()
	out.add("store.materialize_ms", ms(time.Since(t1)))
	tr.end(sp)
	if !closeStore(st, tr, op, parent, out) {
		return 0, false
	}
	d := time.Since(t0)
	switch {
	case err != nil:
		out.fail(1, "load: %v", err)
		return 0, false
	case !sameTrace(got, c.reference):
		out.wrong(1, "load: the materialized trace differs from the recording")
		return 0, false
	}
	return ms(d), true
}

// sameTrace compares two traces record for record.
func sameTrace(a, b *trace.Trace) bool {
	if a.NumRanks() != b.NumRanks() {
		return false
	}
	for r := 0; r < a.NumRanks(); r++ {
		if !slices.Equal(a.Rank(r), b.Rank(r)) {
			return false
		}
	}
	return true
}

// analyzeQuery is open, compile, Plan.Run over the store, close; it returns
// the whole operation's milliseconds.
func analyzeQuery(c *corpus, tr *tracer, op, parent int, expr string, want []trace.EventID, runMetric string, out *phaseOut) (float64, bool) {
	out.attempted++
	var before counters
	if tr != nil {
		before = readCounters()
	}
	t0 := coldStart()
	st, ok := openStore(c, tr, op, parent, out)
	if !ok {
		return 0, false
	}
	sp := tr.start("query.compile", op, parent)
	t1 := time.Now()
	q, err := query.Compile(expr)
	out.add("query.compile_us", float64(time.Since(t1))/1e3)
	tr.end(sp)
	var ids []trace.EventID
	if err == nil {
		sp = tr.start("query.run", op, parent)
		t1 = time.Now()
		ids, err = q.Plan(query.NewStoreSource(st)).Run()
		out.add(runMetric, ms(time.Since(t1)))
		tr.end(sp)
	}
	if !closeStore(st, tr, op, parent, out) {
		return 0, false
	}
	d := time.Since(t0)
	switch {
	case err != nil:
		out.fail(1, "query %q: %v", expr, err)
		return 0, false
	case !slices.Equal(ids, want):
		out.wrong(1, "query %q: %d matches, the reference filter finds %d", expr, len(ids), len(want))
		return 0, false
	}
	if tr != nil && len(want) > 0 {
		after := readCounters()
		out.add("store.index_records_per_match", after.since(before, "tracedbg_store_index_records_total")/float64(len(want)))
		out.add("query.records_evaluated_per_match", after.since(before, "tracedbg_query_records_evaluated_total")/float64(len(want)))
	}
	return ms(d), true
}

// analyzeGraph is open, graph.FromStream over per-rank cursors, close.
func analyzeGraph(c *corpus, tr *tracer, op, parent int, out *phaseOut) {
	out.attempted++
	var m0 runtime.MemStats
	if tr != nil {
		m0 = memStats()
	}
	t0 := coldStart()
	st, ok := openStore(c, tr, op, parent, out)
	if !ok {
		return
	}
	sp := tr.start("graph.from_stream", op, parent)
	g, err := graph.FromStream(st.NumRanks(), arcMergeLimit, st.Records)
	tr.end(sp)
	if !closeStore(st, tr, op, parent, out) {
		return
	}
	d := time.Since(t0)
	switch {
	case err != nil:
		out.fail(1, "graph: %v", err)
	case g.EventCount() != c.graphEvents:
		out.wrong(1, "graph: %d events, the materialized build has %d", g.EventCount(), c.graphEvents)
	default:
		out.add("graph_ms_p50", ms(d))
		if tr != nil {
			out.add("graph.alloc_mb", float64(memStats().TotalAlloc-m0.TotalAlloc)/(1<<20))
		}
	}
}

// analyzeTraffic is open, analysis.AnalyzeTrafficStream over Store.All, close.
func analyzeTraffic(c *corpus, tr *tracer, op, parent int, out *phaseOut) {
	out.attempted++
	t0 := coldStart()
	st, ok := openStore(c, tr, op, parent, out)
	if !ok {
		return
	}
	sp := tr.start("analysis.traffic_stream", op, parent)
	var rep *analysis.TrafficReport
	cur, err := st.All()
	if err == nil {
		rep, err = analysis.AnalyzeTrafficStream(st.NumRanks(), cur)
		cur.Close() //nolint:errcheck // read-side cursor
	}
	tr.end(sp)
	if !closeStore(st, tr, op, parent, out) {
		return
	}
	switch {
	case err != nil:
		out.fail(1, "traffic: %v", err)
	case !reflect.DeepEqual(rep, c.trafficWant):
		out.wrong(1, "traffic: the streamed report differs from the materialized one")
	default:
		out.add("analysis.traffic_ms", ms(time.Since(t0)))
	}
}

// analyzeLayers times the layers under analyze one at a time (traced run
// only): the open alone, the decoders alone, the graph build alone.
func analyzeLayers(c *corpus, tr *tracer, out *phaseOut) {
	const reps = 5
	var open, decode, build, cursorRecs samples
	available := 0
	for i := 0; i < reps; i++ {
		op := tr.op()
		before := readCounters()
		sp := tr.start("store.open", op, 0)
		t0 := time.Now()
		st, err := store.OpenMmap(c.analyzeManifest)
		if err != nil {
			out.broke(err)
			return
		}
		if st.Indexes().Available() {
			available++
		}
		open = append(open, ms(time.Since(t0)))
		tr.end(sp)

		sp = tr.start("trace.decode", op, 0)
		t0 = time.Now()
		cur, err := st.All()
		n := 0
		for err == nil {
			if _, err = cur.Next(); err == nil {
				n++
			}
		}
		if cur != nil {
			cur.Close() //nolint:errcheck // read-side cursor
		}
		tr.end(sp)
		if err != io.EOF || n != c.analyzeRecords {
			out.wrong(1, "decode: %d of %d records, %v", n, c.analyzeRecords, err)
			st.Close() //nolint:errcheck // the decode mismatch is the one reported
			return
		}
		decode = append(decode, float64(time.Since(t0))/float64(n))
		if err := st.Close(); err != nil {
			out.broke(err)
			return
		}
		cursorRecs = append(cursorRecs, readCounters().since(before, "tracedbg_store_cursor_records_total"))

		sp = tr.start("graph.from_trace", op, 0)
		t0 = time.Now()
		graph.FromTrace(c.reference, arcMergeLimit)
		build = append(build, float64(time.Since(t0))/float64(c.analyzeRecords))
		tr.end(sp)
	}
	out.set("store.open_ms", open.median(), reps)
	out.set("store.index_available_share", float64(available)/reps, reps)
	out.set("store.cursor_records", cursorRecs.median(), reps)
	out.set("trace.decode_ns_per_record", decode.median(), reps)
	out.set("graph.build_ns_per_record", build.median(), reps)
}
