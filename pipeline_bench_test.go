// Benchmarks for the sharded trace pipeline: per-rank batched writing,
// parallel decode + merge, and index-pruned queries, compared head to head
// against the serial paths they replace. Run with:
//
//	go test -bench='Load|Query|Write' -benchmem .
//
// or scripts/bench.sh to capture a JSON baseline (BENCH_PR2.json).
package tracedbg_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tracedbg/internal/graph"
	"tracedbg/internal/query"
	"tracedbg/internal/trace"
)

// pipelineTrace synthesizes a ranks-wide trace with realistic string variety
// (locations, construct names, occasional faults) and per-rank monotone
// clocks/markers.
func pipelineTrace(ranks, events int) *trace.Trace {
	rng := rand.New(rand.NewSource(97))
	files := []string{"ring.go", "lu.go", "strassen.go"}
	funcs := []string{"main", "worker", "exchange", "reduce"}
	faults := []string{"", "", "", "", "drop", "dup"}
	tr := trace.New(ranks)
	clock := make([]int64, ranks)
	marker := make([]uint64, ranks)
	for i := 0; i < events; i++ {
		r := i % ranks
		start := clock[r]
		end := start + 1 + int64(rng.Intn(6))
		clock[r] = end
		marker[r]++
		kind := trace.KindCompute
		switch rng.Intn(3) {
		case 0:
			kind = trace.KindSend
		case 1:
			kind = trace.KindRecv
		}
		tr.MustAppend(trace.Record{Kind: kind, Rank: r, Marker: marker[r],
			Loc:   trace.Location{File: files[rng.Intn(len(files))], Line: 10 + rng.Intn(100), Func: funcs[rng.Intn(len(funcs))]},
			Start: start, End: end, Src: r, Dst: (r + 1) % ranks,
			Tag: rng.Intn(4), Bytes: 64, MsgID: uint64(i),
			Name: "op", Fault: faults[rng.Intn(len(faults))]})
	}
	return tr
}

func encodedPipelineTrace(b *testing.B, ranks, events int) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, pipelineTrace(ranks, events)); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

const (
	benchRanks  = 8
	benchEvents = 60000
)

// --- Loader: parallel decode + merge vs the serial scanner ----------------

// BenchmarkSerialLoad is the baseline: the streaming Scanner via ReadAll.
func BenchmarkSerialLoad(b *testing.B) {
	data := encodedPipelineTrace(b, benchRanks, benchEvents)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := trace.ReadAll(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() != benchEvents {
			b.Fatal("short read")
		}
	}
}

// BenchmarkParallelLoad decodes the same bytes through the segmented
// byte-slice loader (acceptance target: >= 2x over BenchmarkSerialLoad).
func BenchmarkParallelLoad(b *testing.B) {
	data := encodedPipelineTrace(b, benchRanks, benchEvents)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := trace.LoadParallel(data)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() != benchEvents {
			b.Fatal("short read")
		}
	}
}

// BenchmarkParallelLoadIndexed reuses a prebuilt navigation index for
// segmentation (the index is built once, as a debugger session would).
func BenchmarkParallelLoadIndexed(b *testing.B) {
	data := encodedPipelineTrace(b, benchRanks, benchEvents)
	ix, err := trace.BuildIndex(bytes.NewReader(data), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := trace.LoadParallelIndexed(data, ix)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() != benchEvents {
			b.Fatal("short read")
		}
	}
}

// --- Queries: index-pruned vs full scan -----------------------------------

func queryBenchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	return pipelineTrace(benchRanks, benchEvents)
}

const benchQuery = "rank = 3 && start >= 1000 && start <= 3000 && kind = send"

// BenchmarkQuerySerial is the baseline: evaluate the predicate on every
// record of every rank.
func BenchmarkQuerySerial(b *testing.B) {
	tr := queryBenchTrace(b)
	q, err := query.Compile(benchQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := tr.Filter(q.Match)
		if len(ids) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkQueryIndexed runs the same query through the bounds-pruned path:
// non-matching ranks are skipped and the start interval is binary-searched
// (acceptance target: >= 2x over BenchmarkQuerySerial).
func BenchmarkQueryIndexed(b *testing.B) {
	tr := queryBenchTrace(b)
	q, err := query.Compile(benchQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := q.Run(tr)
		if len(ids) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkQueryParallel adds the per-rank fan-out on top of pruning, with a
// query whose bounds cannot exclude any rank.
func BenchmarkQueryParallel(b *testing.B) {
	tr := queryBenchTrace(b)
	q, err := query.Compile("kind = send && bytes > 10")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := q.RunParallel(tr)
		if len(ids) == 0 {
			b.Fatal("no matches")
		}
	}
}

// --- Writer: per-event file mutex vs per-rank batched chunks --------------

// BenchmarkFileWriterSerial is the baseline write side: every rank goroutine
// funnels each record through the shared writer.
func BenchmarkFileWriterSerial(b *testing.B) {
	tr := pipelineTrace(benchRanks, benchEvents/4)
	var buf bytes.Buffer // reused across iterations: measure the writer, not buffer regrowth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		fw, err := trace.NewFileWriter(&buf, benchRanks)
		if err != nil {
			b.Fatal(err)
		}
		writeAllRanks(b, fw.Write, tr)
		if err := fw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedWrite batches per-rank buffers into the file in chunks,
// driving the writer the way the instrumentation layer does: each rank
// goroutine hands off runs of records through WriteBatch (the drain cadence
// of the rank-local event buffers), not one mutex acquisition per event.
func BenchmarkShardedWrite(b *testing.B) {
	tr := pipelineTrace(benchRanks, benchEvents/4)
	var buf bytes.Buffer // reused across iterations: measure the writer, not buffer regrowth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		sw, err := trace.NewShardedWriter(&buf, benchRanks)
		if err != nil {
			b.Fatal(err)
		}
		writeAllRanksBatched(b, sw, tr)
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// writeBatchSize mirrors the drain cadence of the instrumentation layer's
// rank-local event buffers (instr.emitBatch).
const writeBatchSize = 64

// writeAllRanksBatched emits every rank's records from its own goroutine in
// WriteBatch runs, the handoff pattern of a live instrumented run.
func writeAllRanksBatched(b *testing.B, sw *trace.ShardedWriter, tr *trace.Trace) {
	b.Helper()
	var wg sync.WaitGroup
	for r := 0; r < tr.NumRanks(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			recs := tr.Rank(r)
			for len(recs) > 0 {
				n := writeBatchSize
				if n > len(recs) {
					n = len(recs)
				}
				if err := sw.WriteBatch(r, recs[:n]); err != nil {
					b.Error(err)
					return
				}
				recs = recs[n:]
			}
		}(r)
	}
	wg.Wait()
}

// writeAllRanks emits every rank's records from its own goroutine, the
// contention pattern of a live instrumented run.
func writeAllRanks(b *testing.B, write func(*trace.Record) error, tr *trace.Trace) {
	b.Helper()
	var wg sync.WaitGroup
	for r := 0; r < tr.NumRanks(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			recs := tr.Rank(r)
			for i := range recs {
				if err := write(&recs[i]); err != nil {
					b.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// --- Durability: sync policy cost -----------------------------------------

// BenchmarkSyncPolicy prices the durability ladder on the sharded write
// path against a real file: none (kernel buffering only), interval (fsync
// at most once per spacing), every-chunk (fsync at every sealed frame).
func BenchmarkSyncPolicy(b *testing.B) {
	tr := pipelineTrace(benchRanks, benchEvents/4)
	for _, policy := range []trace.SyncPolicy{trace.SyncNone, trace.SyncInterval, trace.SyncEveryChunk} {
		b.Run(policy.String(), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "bench.trace")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := os.Create(path)
				if err != nil {
					b.Fatal(err)
				}
				sw, err := trace.NewShardedWriterOptions(f, benchRanks, 0, trace.WriterOptions{Sync: policy})
				if err != nil {
					b.Fatal(err)
				}
				writeAllRanks(b, sw.Write, tr)
				if err := sw.Close(); err != nil {
					b.Fatal(err)
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Graph: build with dissemination at the debugger's limit ---------------

// At benchEvents, not a fraction of it: the cost of dissemination only shows
// once nodes sit over the limit and rounds fire on most adds.
func BenchmarkGraphFromTraceSerial(b *testing.B) {
	tr := pipelineTrace(benchRanks, benchEvents)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.FromTrace(tr, 256)
		if len(g.Nodes()) == 0 {
			b.Fatal("empty graph")
		}
	}
}
