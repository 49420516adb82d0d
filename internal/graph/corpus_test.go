package graph

import (
	"math/rand"
	"sync"
	"testing"

	"tracedbg/internal/apps"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/trace"
)

// callMsgTrace builds a trace mixing nested calls with messaging, the record
// mix FromTrace actually consumes.
func callMsgTrace(rng *rand.Rand, ranks, events int) *trace.Trace {
	tr := trace.New(ranks)
	clock := make([]int64, ranks)
	marker := make([]uint64, ranks)
	depth := make([]int, ranks)
	funcs := []string{"main", "solve", "exchange", "reduce", "factor"}
	var msgID uint64
	for i := 0; i < events; i++ {
		r := rng.Intn(ranks)
		start := clock[r]
		end := start + 1 + int64(rng.Intn(5))
		clock[r] = end
		marker[r]++
		switch c := rng.Intn(6); {
		case c == 0:
			tr.MustAppend(trace.Record{Kind: trace.KindFuncEntry, Rank: r, Marker: marker[r],
				Start: start, End: end, Name: funcs[rng.Intn(len(funcs))]})
			depth[r]++
		case c == 1 && depth[r] > 0:
			tr.MustAppend(trace.Record{Kind: trace.KindFuncExit, Rank: r, Marker: marker[r],
				Start: start, End: end})
			depth[r]--
		case c <= 3:
			dst := rng.Intn(ranks)
			if dst == r {
				dst = (dst + 1) % ranks
			}
			msgID++
			tr.MustAppend(trace.Record{Kind: trace.KindSend, Rank: r, Marker: marker[r],
				Start: start, End: end, Src: r, Dst: dst, Tag: rng.Intn(3),
				Bytes: 16, MsgID: msgID, Loc: trace.Location{Func: funcs[rng.Intn(len(funcs))]}})
		case c == 4:
			src := rng.Intn(ranks)
			if src == r {
				src = (src + 1) % ranks
			}
			tr.MustAppend(trace.Record{Kind: trace.KindRecv, Rank: r, Marker: marker[r],
				Start: start, End: end, Src: src, Dst: r, Tag: rng.Intn(3),
				Bytes: 16, MsgID: uint64(rng.Intn(int(msgID + 1)))})
		default:
			tr.MustAppend(trace.Record{Kind: trace.KindCompute, Rank: r, Marker: marker[r],
				Start: start, End: end})
		}
	}
	return tr
}

// recordApp runs body under full instrumentation and returns its history
// with message ids renumbered in rank-major send order: the runtime hands
// ids out in scheduling order, everything else the graph reads (kinds,
// names, endpoints, tags, markers) is program order and repeats exactly.
func recordApp(t testing.TB, ranks int, body func(c *instr.Ctx)) *trace.Trace {
	t.Helper()
	sink := instr.NewMemorySink(ranks)
	in := instr.New(ranks, sink, instr.LevelAll)
	if err := in.Run(mp.Config{NumRanks: ranks}, body); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	tr := sink.Trace()
	renum := make(map[uint64]uint64)
	for _, kind := range []trace.Kind{trace.KindSend, trace.KindRecv} {
		for rank := 0; rank < ranks; rank++ {
			recs := tr.Rank(rank)
			for i := range recs {
				rec := &recs[i]
				if rec.Kind != kind {
					continue
				}
				if _, ok := renum[rec.MsgID]; !ok && kind == trace.KindSend {
					renum[rec.MsgID] = uint64(len(renum) + 1)
				}
				rec.MsgID = renum[rec.MsgID]
			}
		}
	}
	return tr
}

type namedTrace struct {
	name string
	tr   *trace.Trace
}

var corpusOnce struct {
	sync.Once
	traces []namedTrace
}

// randomCorpusEvents is the length of each seeded random trace of the corpus.
const randomCorpusEvents = 40000

// corpus is the set of histories the identity goldens, the index invariants
// and the cost pin run over: the recorded workloads the benchmark and the
// debugger build graphs from, and irregular random traces whose neighbours
// alternate, so nodes stay over the limit and rounds fire on nearly every add.
func corpus(t testing.TB) []namedTrace {
	t.Helper()
	corpusOnce.Do(func() {
		add := func(name string, tr *trace.Trace) {
			corpusOnce.traces = append(corpusOnce.traces, namedTrace{name, tr})
		}
		add("jacobi-8", recordApp(t, 8, apps.Jacobi(apps.JacobiConfig{Cells: 64, Iters: 1000, Seed: 1}, nil)))
		add("jacobi-4", recordApp(t, 4, apps.Jacobi(apps.JacobiConfig{Cells: 4096, Iters: 300, Seed: 1}, nil)))
		add("lu-4", recordApp(t, 4, apps.LU(apps.LUConfig{Cols: 16, Rows: 4, Iters: 200, Seed: 1}, nil)))
		add("fib-20", recordApp(t, 1, apps.Fib(20, nil)))
		add("strassen-8", recordApp(t, 8, apps.Strassen(apps.StrassenConfig{N: 16, Seed: 1}, nil)))
		for i, ranks := range []int{2, 3, 5, 8} {
			rng := rand.New(rand.NewSource(int64(101 + i)))
			add("random-"+string(rune('a'+i)), callMsgTrace(rng, ranks, randomCorpusEvents))
		}
	})
	if len(corpusOnce.traces) == 0 {
		t.Fatal("corpus failed to build")
	}
	return corpusOnce.traces
}

// skipUnderRace skips a single-goroutine test that builds the whole corpus
// at every limit: twenty times slower under the race detector, which has
// nothing to see in it. TestConcurrentEmit is the test -race is for.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine corpus sweep; see TestConcurrentEmit")
	}
}

// corpusLimits are the dissemination thresholds every corpus test runs at:
// off, aggressive, moderate, and the debugger's shipped 256.
var corpusLimits = []int{0, 4, 16, 256}
