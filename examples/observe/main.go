// Self-observability: the pipeline watching itself work. A Strassen run
// streams its history to an in-process collector daemon (cmd/tcollect's
// machinery)
// while a live /metrics endpoint serves Prometheus text, JSON snapshots, and
// pprof. After each stage — record/stream, persist, load, query — the
// example prints which counters moved and by how much, the stage-by-stage
// byte and event accounting that `tanalyze -stats` and the bench baseline
// expose in bulk.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"tracedbg/internal/apps"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/obs"
	"tracedbg/internal/query"
	"tracedbg/internal/remote"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// stage prints every registry series the previous stage moved.
func stage(prev obs.Snapshot, name string) obs.Snapshot {
	cur := obs.Default().Snapshot()
	before := map[string]float64{}
	for _, m := range prev.Metrics {
		before[m.Name+"|"+m.LabelValue] = m.Value
	}
	var lines []string
	for _, m := range cur.Metrics {
		d := m.Value - before[m.Name+"|"+m.LabelValue]
		if m.Type == obs.TypeHistogram {
			// For histograms the observation count is the story.
			var pc uint64
			if p, ok := prev.Get(m.Name); ok {
				pc = p.Count
			}
			if n := m.Count - pc; n > 0 {
				lines = append(lines, fmt.Sprintf("  %-48s +%d observations", m.Name, n))
			}
			continue
		}
		if d != 0 {
			label := m.Name
			if m.LabelValue != "" {
				label += "{" + m.LabelKey + "=" + m.LabelValue + "}"
			}
			lines = append(lines, fmt.Sprintf("  %-48s %+g", label, d))
		}
	}
	sort.Strings(lines)
	fmt.Printf("\n== %s ==\n%s\n", name, strings.Join(lines, "\n"))
	return cur
}

func main() {
	// Structured pipeline telemetry to stderr; the metrics endpoint any
	// Prometheus scraper (or curl) could poll mid-run.
	obs.SetEvents(obs.NewEventLog(os.Stderr, obs.LevelInfo))
	srv, err := obs.Serve("127.0.0.1:0", obs.Default())
	if err != nil {
		log.Fatalf("metrics endpoint: %v", err)
	}
	defer srv.Close()
	fmt.Printf("live metrics on %s/metrics (pprof on /debug/pprof/)\n", srv.URL())

	snap := obs.Default().Snapshot()

	// Stage 1 — record: an instrumented 8-rank Strassen multiply streaming
	// its records over TCP to a collector daemon, exactly what `tcollect`
	// runs, which lands them in a session store.
	dir, err := os.MkdirTemp("", "observe-")
	if err != nil {
		log.Fatalf("session dir: %v", err)
	}
	defer os.RemoveAll(dir)
	d, err := remote.NewDaemon("127.0.0.1:0", remote.DaemonOptions{Dir: dir})
	if err != nil {
		log.Fatalf("collector: %v", err)
	}
	defer d.Close()
	const ranks, session = 8, "strassen"
	client, err := remote.DialOptions(d.Addr(), ranks, remote.ClientOptions{SessionID: session})
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	in := instr.New(ranks, client, instr.LevelAll)
	if err := in.Run(mp.Config{NumRanks: ranks},
		apps.Strassen(apps.StrassenConfig{N: 32, Seed: 7}, nil)); err != nil {
		log.Fatalf("run: %v", err)
	}
	if err := client.Close(); err != nil {
		log.Fatalf("client close: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); !finalized(d, session); {
		if time.Now().After(deadline) {
			log.Fatal("session never finalized")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sst, err := store.Open(d.SessionManifest(session))
	if err != nil {
		log.Fatalf("open session: %v", err)
	}
	tr, err := sst.Trace()
	sst.Close()
	if err != nil {
		log.Fatalf("load session: %v", err)
	}
	snap = stage(snap, fmt.Sprintf("record + stream (%d events)", tr.Len()))

	// Stage 2 — persist: encode through the sharded writer.
	var buf bytes.Buffer
	sw, err := trace.NewShardedWriter(&buf, tr.NumRanks())
	if err != nil {
		log.Fatalf("writer: %v", err)
	}
	for r := 0; r < tr.NumRanks(); r++ {
		recs := tr.Rank(r)
		for i := range recs {
			if err := sw.Write(&recs[i]); err != nil {
				log.Fatalf("write: %v", err)
			}
		}
	}
	if err := sw.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	snap = stage(snap, fmt.Sprintf("persist (%d bytes)", buf.Len()))

	// Stage 3 — load: the trace store sniffs the image and negotiates the
	// parallel segment decoder for it.
	stc, err := store.OpenBytes(buf.Bytes())
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	loaded, err := stc.Trace()
	if err != nil {
		log.Fatalf("load: %v", err)
	}
	snap = stage(snap, fmt.Sprintf("parallel load (%d events)", loaded.Len()))

	// Stage 4 — query: a rank-pruned search planned against the store, so
	// a persistent index sidecar (when present) seeks instead of scanning.
	cache := query.NewCache()
	q, err := cache.Compile(`kind = send && rank = 2`)
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	hits, err := q.Plan(query.NewStoreSource(stc)).Run()
	if err != nil {
		log.Fatalf("query run: %v", err)
	}
	if _, err := cache.Compile(`kind = send && rank = 2`); err != nil { // cache hit
		log.Fatalf("recompile: %v", err)
	}
	stage(snap, fmt.Sprintf("query (%d matches)", len(hits)))

	// Finally, scrape the live endpoint the way Prometheus would.
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		log.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("\n== GET /metrics (%d series) — excerpt ==\n", bytes.Count(body, []byte("\n")))
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "tracedbg_trace_") || strings.HasPrefix(line, "tracedbg_collector_sessions_") {
			fmt.Println(line)
		}
	}
}

// finalized reports whether the daemon has sealed the session's store.
func finalized(d *remote.Daemon, session string) bool {
	for _, s := range d.Sessions() {
		if s.ID == session && s.State == "done" {
			return true
		}
	}
	return false
}
