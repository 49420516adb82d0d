package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden exposition files")

// goldenRegistry builds a registry with a fixed, fully deterministic state
// covering every metric type, so both exposition formats can be golden-
// tested byte for byte (snapshots carry no timestamps by design).
func goldenRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("tracedbg_trace_chunk_flushes_total", "per-rank buffer batches drained into the shared file writer")
	c.Add(12)
	sc := r.ShardedCounter("tracedbg_trace_records_written_total", "records accepted by the sharded trace writer")
	for rank := 0; rank < 4; rank++ {
		sc.Add(rank, 250)
	}
	g := r.Gauge("tracedbg_trace_load_workers", "decode workers used by the most recent parallel load")
	g.Set(8)
	sg := r.ShardedGauge("tracedbg_trace_buffer_bytes", "encoded bytes currently buffered in per-rank shards")
	sg.Add(0, 4096)
	sg.Add(1, -96)
	h := r.Histogram("tracedbg_trace_chunk_bytes", "size distribution of flushed chunks in bytes")
	for _, v := range []uint64{0, 1, 100, 4000, 4000, 40000} {
		h.Observe(v)
	}
	v := r.CounterVec("tracedbg_fault_injections_total", "fault applications by plan rule index", "rule")
	v.With("0").Add(3)
	v.With("slow").Inc()
	// The collector daemon's admission/quota/backpressure set, as exported
	// while sessions are in flight.
	r.Gauge("tracedbg_collector_sessions_active", "sessions currently admitted and not yet finalized on the daemon").Set(3)
	r.Counter("tracedbg_collector_sessions_admitted_total", "sessions that passed admission control").Add(11)
	r.Counter("tracedbg_collector_sessions_rejected_total", "handshakes refused with a typed TDBGREJ rejection").Add(2)
	r.Counter("tracedbg_collector_sessions_drained_total", "sessions finalized (manifest written) by close, drain or quota kill").Add(8)
	r.Counter("tracedbg_collector_quota_kills_total", "sessions terminated for exceeding a byte/record quota or the disk budget").Inc()
	r.Gauge("tracedbg_collector_disk_used_bytes", "bytes of segment data written across all sessions, against the disk budget").Set(1 << 20)
	r.Gauge("tracedbg_collector_queue_records", "records buffered in per-session ingest queues (the daemon's live-heap bound)").Set(96)
	r.Counter("tracedbg_collector_ingest_stalls_total", "ingest reads that blocked on a full session queue (TCP backpressure engaged)").Add(4)
	// The live-monitoring set: store-level tail cursors and the daemon's
	// HTTP streaming consumers.
	r.Counter("tracedbg_store_tails_total", "live tail cursors opened on stores").Add(5)
	r.Counter("tracedbg_store_tail_records_total", "records delivered by live tail cursors").Add(1200)
	r.Counter("tracedbg_store_tail_polls_total", "tail growth re-checks that found nothing new").Add(37)
	r.Counter("tracedbg_store_tail_wakes_total", "tail waits ended early by an in-process writer's growth note").Add(1150)
	r.Counter("tracedbg_store_tail_resyncs_total", "mid-tail damage resynchronizations").Inc()
	r.Counter("tracedbg_store_tail_rotations_total", "segment-chain handoffs performed by live tails").Add(6)
	r.Counter("tracedbg_store_tail_reopens_total", "tails restarted because the file was rewritten underneath").Inc()
	r.Gauge("tracedbg_store_tail_active", "live tail cursors currently open").Set(2)
	r.Counter("tracedbg_collector_streams_total", "HTTP tail streams opened on daemon sessions").Add(3)
	r.Counter("tracedbg_collector_stream_records_total", "records delivered to HTTP tail consumers").Add(900)
	r.Counter("tracedbg_collector_stream_dropped_total", "records dropped on slow HTTP tail consumers (bounded queue overflow)").Add(7)
	r.Gauge("tracedbg_collector_stream_consumers", "HTTP tail consumers currently connected").Set(1)
	return r
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "snapshot.prom", buf.Bytes())
}

func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "snapshot.json", buf.Bytes())
	// The golden bytes must also round-trip as a valid JSON document.
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if len(s.Metrics) != len(goldenRegistry().Snapshot().Metrics) {
		t.Fatal("JSON round-trip lost metrics")
	}
}

func TestPrometheusShape(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE tracedbg_trace_records_written_total counter",
		"tracedbg_trace_records_written_total 1000",
		"# TYPE tracedbg_trace_chunk_bytes histogram",
		`tracedbg_trace_chunk_bytes_bucket{le="+Inf"} 6`,
		"tracedbg_trace_chunk_bytes_sum 48101",
		"tracedbg_trace_chunk_bytes_count 6",
		`tracedbg_fault_injections_total{rule="0"} 3`,
		`tracedbg_fault_injections_total{rule="slow"} 1`,
		"tracedbg_trace_buffer_bytes 4000",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	// HELP/TYPE headers must appear exactly once per metric name.
	if n := strings.Count(text, "# TYPE tracedbg_fault_injections_total"); n != 1 {
		t.Errorf("TYPE header for vector emitted %d times, want 1", n)
	}
}

func TestTable(t *testing.T) {
	text := goldenRegistry().Snapshot().Table()
	if !strings.HasPrefix(text, "METRIC") {
		t.Fatalf("table missing header:\n%s", text)
	}
	for _, want := range []string{
		"tracedbg_trace_records_written_total",
		"count=6 sum=48101",
		"{rule=slow}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
}

func TestSnapshotGet(t *testing.T) {
	s := goldenRegistry().Snapshot()
	if _, ok := s.Get("tracedbg_trace_load_workers"); !ok {
		t.Fatal("Get failed for registered gauge")
	}
	if _, ok := s.Get("no_such_metric"); ok {
		t.Fatal("Get found a metric that does not exist")
	}
}
