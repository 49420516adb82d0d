// BenchmarkDaemonIngest measures the collector daemon's ingest throughput
// over loopback TCP: one session alone and eight sessions streaming
// concurrently (the multi-session scaling number). Records flow the full
// path — client framing, wire, admission, bounded queue, sequential segment
// writer — and an iteration counts one record made durable on disk. Daemon
// and clients run at their shipped defaults (window, keepalive, MemLimit),
// so the number is the one a `tcollect -daemon` user gets.
//
// Run with scripts/bench.sh to capture the JSON baseline.
package tracedbg_test

import (
	"fmt"
	"testing"
	"time"

	"tracedbg/internal/remote"
	"tracedbg/internal/trace"
)

const daemonBenchRanks = 4

func benchEmit(b *testing.B, cl *remote.Client, n int) {
	var marker uint64
	var clock int64
	for i := 0; i < n; i++ {
		marker++
		clock += 2
		cl.Emit(&trace.Record{
			Kind: trace.KindMarker, Rank: i % daemonBenchRanks, Marker: marker,
			Start: clock - 1, End: clock, Name: "bench",
		})
		if i%512 == 511 {
			cl.Flush()
		}
	}
	cl.Flush()
}

func benchDaemonIngest(b *testing.B, sessions int) {
	d, err := remote.NewDaemon("127.0.0.1:0", remote.DaemonOptions{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	clients := make([]*remote.Client, sessions)
	for i := range clients {
		cl, err := remote.DialOptions(d.Addr(), daemonBenchRanks, remote.ClientOptions{
			SessionID: fmt.Sprintf("bench-%d", i),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}

	per := b.N / sessions
	if per == 0 {
		per = 1
	}
	total := uint64(per * sessions)
	b.ResetTimer()
	done := make(chan struct{})
	for _, cl := range clients {
		go func(cl *remote.Client) {
			benchEmit(b, cl, per)
			done <- struct{}{}
		}(cl)
	}
	for range clients {
		<-done
	}
	for {
		var sum uint64
		for _, st := range d.Sessions() {
			sum += st.Durable
		}
		if sum >= total {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkDaemonIngest(b *testing.B) {
	b.Run("SingleSession", func(b *testing.B) { benchDaemonIngest(b, 1) })
	b.Run("MultiSession8", func(b *testing.B) { benchDaemonIngest(b, 8) })
}
