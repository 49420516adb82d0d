package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"tracedbg/internal/analysis"
	"tracedbg/internal/apps"
	"tracedbg/internal/graph"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/query"
	"tracedbg/internal/trace"
)

// sizes fixes how much work one cycle of each phase does. The defaults are
// what BENCHMARK.json's numbers are measured at; the smoke test divides them.
type sizes struct {
	jacobiRanks, jacobiCells, jacobiIters int // the live target of debug-session
	fibN                                  int // Table 1's call-dominated case

	streamRanks    int // the recording collect and follow ship
	collectRecords int // records per collect session
	followRate     int // records per second, open loop

	analyzeRanks, analyzeIters int   // the finalized store analyze reads
	segmentBytes               int64 // the daemon's segment size
}

var defaultSizes = sizes{
	jacobiRanks: 4, jacobiCells: 4096, jacobiIters: 300,
	fibN:        24,
	streamRanks: 4,
	// Twice the client's default MemLimit, so half of every session takes
	// the spill file on its way to the wire, as a burst from a real monitor
	// does.
	collectRecords: 8192,
	followRate:     1000,
	analyzeRanks:   8, analyzeIters: 1000,
	segmentBytes: 4 << 20,
}

// The graph abstraction's merge limit, as core.Debugger uses it.
const arcMergeLimit = 256

const (
	scanQuery = "kind = recv && bytes > 100000" // unbounded: full decode, zero matches
	// boundedQueries is how many marker-bounded queries one analyze cycle runs.
	boundedQueries = 5
)

// corpus is everything set-up derives from the seed: the inputs the phases
// feed the program, and the reference results their outputs are checked
// against. The references come from the in-memory recordings through the
// materialized paths (Trace.Filter, graph.FromTrace, analysis.AnalyzeTraffic),
// never from the code under measurement.
type corpus struct {
	sz   sizes
	seed int64
	dir  string // scratch space of this run, inside the checkout

	// stream is the merged-order record stream of a 4-rank jacobi run
	// followed by an lu run: what collect and follow emit.
	stream []trace.Record

	// The analyze store and its references.
	analyzeManifest string
	analyzeRecords  int
	reference       *trace.Trace
	floors          [boundedQueries]uint64
	boundedWant     [boundedQueries][]trace.EventID
	scanWant        []trace.EventID
	graphEvents     int
	trafficWant     *analysis.TrafficReport
}

// record runs body on ranks ranks at LevelAll into memory.
func record(ranks int, body func(c *instr.Ctx)) (*trace.Trace, error) {
	sink := instr.NewMemorySink(ranks)
	in := instr.New(ranks, sink, instr.LevelAll)
	if err := in.Run(mp.Config{NumRanks: ranks}, body); err != nil {
		return nil, err
	}
	if err := sink.Err(); err != nil {
		return nil, err
	}
	return sink.Trace(), nil
}

// buildStream records jacobi then lu and lays the second recording after
// the first (markers, clocks and message ids shifted past it), so the
// concatenation is one valid history: per-rank markers and clocks keep
// rising and sends still match receives.
func buildStream(sz sizes, seed int64, need int) ([]trace.Record, error) {
	// Roughly 24 events per jacobi iteration and 52 per lu iteration at
	// four ranks; each app supplies half of the stream, with a margin.
	jIters := need/2/24 + 8
	lIters := need/2/52 + 8
	jt, err := record(sz.streamRanks, apps.Jacobi(apps.JacobiConfig{Cells: 64, Iters: jIters, Seed: seed}, nil))
	if err != nil {
		return nil, fmt.Errorf("record jacobi: %w", err)
	}
	lt, err := record(sz.streamRanks, apps.LU(apps.LUConfig{Cols: 16, Rows: 4, Iters: lIters, Seed: seed}, nil))
	if err != nil {
		return nil, fmt.Errorf("record lu: %w", err)
	}
	out := make([]trace.Record, 0, jt.Len()+lt.Len())
	lastMarker := make([]uint64, sz.streamRanks)
	var lastMsg uint64
	for _, id := range jt.MergedOrder() {
		r := *jt.MustAt(id)
		lastMarker[r.Rank] = r.Marker
		lastMsg = max(lastMsg, r.MsgID)
		out = append(out, r)
	}
	shift := jt.EndTime() + 1
	for _, id := range lt.MergedOrder() {
		r := *lt.MustAt(id)
		r.Marker += lastMarker[r.Rank]
		r.Start += shift
		r.End += shift
		if r.MsgID != 0 {
			r.MsgID += lastMsg
		}
		out = append(out, r)
	}
	if len(out) < need {
		return nil, fmt.Errorf("stream has %d records, need %d", len(out), need)
	}
	return out, nil
}

// setUp builds the corpus for one run under dir. streamNeed is how many
// records the longest collect or follow phase of this run will emit.
func setUp(sz sizes, seed int64, dir string, streamNeed int) (*corpus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &corpus{sz: sz, seed: seed, dir: dir}
	var err error
	if c.stream, err = buildStream(sz, seed, streamNeed); err != nil {
		return nil, err
	}

	// The analyze store: a real recording (sends match receives) written the
	// way the daemon writes a session, sidecars included.
	ref, err := record(sz.analyzeRanks, apps.Jacobi(apps.JacobiConfig{Cells: 64, Iters: sz.analyzeIters, Seed: seed}, nil))
	if err != nil {
		return nil, fmt.Errorf("record analyze corpus: %w", err)
	}
	c.reference = ref
	c.analyzeRecords = ref.Len()
	adir := filepath.Join(dir, "analyze")
	if err := os.MkdirAll(adir, 0o755); err != nil {
		return nil, err
	}
	gw, err := trace.NewSequentialSegmentedWriter(adir, "trace", sz.analyzeRanks, sz.segmentBytes,
		trace.WriterOptions{BuildIndex: true})
	if err != nil {
		return nil, err
	}
	for _, id := range ref.MergedOrder() {
		if err := gw.Write(ref.MustAt(id)); err != nil {
			gw.Close() //nolint:errcheck // the write error is the one reported
			return nil, err
		}
	}
	if err := gw.Close(); err != nil {
		return nil, err
	}
	c.analyzeManifest = gw.ManifestPath()

	// Bounded-query floors sit in the last tenth of the shortest rank's
	// marker range. They are seed-chosen in antithetic pairs around the
	// middle (u, 1-u), so the records the five queries decode add up to the
	// same total for every seed: the seed moves each query, not the cycle.
	top := ref.Rank(0)[ref.RankLen(0)-1].Marker
	for r := 1; r < ref.NumRanks(); r++ {
		top = min(top, ref.Rank(r)[ref.RankLen(r)-1].Marker)
	}
	rng := rand.New(rand.NewSource(seed))
	u1, u2 := rng.Float64(), rng.Float64()
	for i, u := range [boundedQueries]float64{0.5, u1, 1 - u1, u2, 1 - u2} {
		c.floors[i] = uint64(float64(top) * (0.9 + 0.1*u))
		q, err := query.Compile(boundedQuery(c.floors[i]))
		if err != nil {
			return nil, err
		}
		c.boundedWant[i] = ref.Filter(q.Match)
		if len(c.boundedWant[i]) == 0 {
			return nil, fmt.Errorf("bounded query %q matches nothing in the reference", q)
		}
	}
	q, err := query.Compile(scanQuery)
	if err != nil {
		return nil, err
	}
	c.scanWant = ref.Filter(q.Match)
	c.graphEvents = graph.FromTrace(ref, arcMergeLimit).EventCount()
	c.trafficWant = analysis.AnalyzeTraffic(ref)
	return c, nil
}

func boundedQuery(floor uint64) string {
	return fmt.Sprintf("kind = send && marker >= %d", floor)
}

// timedSetUp runs set-up reps times, each into its own directory, and
// returns the last corpus with the median wall time. Set-up is timed several
// times so that work a later change moves out of the measured phases and
// into set-up shows as a steady number, not as one noisy sample.
func timedSetUp(sz sizes, seed int64, dir string, streamNeed, reps int) (*corpus, samples, error) {
	var c *corpus
	var times samples
	for i := 0; i < reps; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		ci, err := setUp(sz, seed, sub, streamNeed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if c != nil {
			os.RemoveAll(c.dir) //nolint:errcheck // scratch of a superseded set-up; the run's deferred cleanup removes the parent
		}
		c = ci
	}
	return c, times, nil
}
