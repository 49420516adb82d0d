package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"tracedbg/internal/store"
)

// How long after the last emit the tail may take to deliver the rest and
// see the session finalize.
const followGrace = 20 * time.Second

// followPhase is live monitoring: one client session emitting at followRate
// records per second on a schedule that does not slow when the system does
// (open loop), Client.Flush after every Emit (the paper's flush-on-demand
// monitor), while one consumer tails the session through store.Open in
// ModeLive. Each record is timed from when it was due to be emitted to when
// Tail.Next returned it.
func followPhase(c *corpus, tr *tracer, budget time.Duration) *phaseOut {
	out := newPhaseOut()
	interval := time.Second / time.Duration(c.sz.followRate)
	n := max(int(budget/interval), 1)
	recs := c.stream[:n]
	out.attempted += n

	dir, spill, err := phaseDirs(c, "follow")
	if err != nil {
		out.broke(err)
		return out
	}
	d, err := newDaemon(filepath.Join(dir, "sessions"))
	if err != nil {
		out.broke(err)
		return out
	}
	defer d.Close()
	id := fmt.Sprintf("follow-%d", c.seed)
	var before counters
	if tr != nil {
		before = readCounters()
	}
	cpu0 := cpuNow()
	op := tr.op()
	root := tr.start("harness.follow", op, 0)
	defer tr.end(root)

	sp := tr.start("remote.dial", op, root)
	cl, err := dial(d, c.sz.streamRanks, id, spill)
	tr.end(sp)
	if err != nil {
		out.fail(n, "%s: dial: %v", id, err)
		return out
	}
	// The daemon publishes the manifest at session open, so the tail can
	// attach before the first record is durable.
	sp = tr.start("store.open_live", op, root)
	st, err := store.Open(d.SessionManifest(id), store.Options{Mode: store.ModeLive})
	var tc store.TailCursor
	if err == nil {
		tc, err = st.Tail()
	}
	tr.end(sp)
	if err != nil {
		cl.Close() //nolint:errcheck // the open error is the one reported
		out.fail(n, "%s: open live store: %v", id, err)
		return out
	}

	start := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	ctx, cancel := context.WithDeadline(context.Background(), due(n).Add(followGrace))
	defer cancel()

	// Consumer: the person watching.
	delivered := make([]time.Time, n)
	var got int
	var consumeErr error
	var consumer, poller sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		defer tc.Close()
		tsp := tr.start("store.tail", op, root)
		defer tr.end(tsp)
		for {
			rec, err := tc.Next(ctx)
			if err != nil {
				if err != io.EOF || got < n {
					consumeErr = fmt.Errorf("tail after %d records: %w", got, err)
				}
				return
			}
			if got >= n {
				consumeErr = fmt.Errorf("tail delivered more than the %d records emitted: %v", n, rec)
				return
			}
			if *rec != recs[got] {
				consumeErr = fmt.Errorf("record %d differs: tailed %v, emitted %v", got+1, rec, &recs[got])
				return
			}
			delivered[got] = time.Now()
			got++
		}
	}()

	// Traced only: a poller times when the daemon reports each record
	// durable, which splits delivery into its remote and store halves.
	var durableAt []time.Time
	stopPoll := make(chan struct{})
	if tr != nil {
		durableAt = make([]time.Time, n)
		poller.Add(1)
		go func() {
			defer poller.Done()
			next := 0
			for next < n {
				select {
				case <-stopPoll:
					return
				default:
				}
				st, _ := sessionStatus(d, id)
				now := time.Now()
				for ; next < n && uint64(next) < st.Durable; next++ {
					durableAt[next] = now
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// Generator: sleeps to each record's due time, never skips one.
	var late, flush samples
	const batch = 256 // records under one remote.emit_flush span
	for i := 0; i < n; i += batch {
		sp := tr.start("remote.emit_flush", op, root)
		for j := i; j < min(i+batch, n); j++ {
			if wait := time.Until(due(j)); wait > 0 {
				time.Sleep(wait)
			}
			t0 := time.Now()
			late = append(late, ms(t0.Sub(due(j))))
			cl.Emit(&recs[j])
			t1 := time.Now()
			cl.Flush() //nolint:errcheck // a lost connection surfaces as undelivered records and in Close
			flush = append(flush, float64(time.Since(t1))/1e3)
		}
		tr.end(sp)
	}
	sp = tr.start("remote.close", op, root)
	closeErr := cl.Close()
	tr.end(sp)
	consumer.Wait() // bounded by ctx
	close(stopPoll)
	poller.Wait()
	cpu := cpuNow() - cpu0
	if err := st.Close(); err != nil {
		out.broke(err)
	}

	if got < n || closeErr != nil {
		out.fail(n-got, "%s: %d of %d records delivered (close: %v, tail: %v)", id, got, n, closeErr, consumeErr)
	} else if consumeErr != nil {
		out.wrong(n, "%s: %v", id, consumeErr)
	}
	var deliver samples
	for i := 0; i < got; i++ {
		deliver = append(deliver, ms(delivered[i].Sub(due(i))))
	}
	if len(deliver) == 0 {
		return out
	}
	out.samples["deliver_ms_p50"] = deliver
	out.set("deliver_ms_p99", deliver.quantile(0.99), len(deliver))
	out.set("follow_cpu_us_per_record", float64(cpu.Microseconds())/float64(n), n)
	out.set("harness.gen_late_ms_p99", late.quantile(0.99), len(late))
	out.set("remote.client.flush_us_p50", flush.median(), len(flush))

	if tr != nil {
		after := readCounters()
		out.set("remote.follow.window_stalls", after.since(before, "tracedbg_remote_client_window_stalls_total"), 1)
		out.set("store.tail.polls_per_record", after.since(before, "tracedbg_store_tail_polls_total")/float64(n), n)
		var toDurable, toDelivered samples
		for i := 0; i < got; i++ {
			if durableAt[i].IsZero() {
				continue
			}
			toDurable = append(toDurable, ms(durableAt[i].Sub(due(i))))
			toDelivered = append(toDelivered, ms(delivered[i].Sub(durableAt[i])))
		}
		if len(toDurable) > 0 {
			out.set("remote.emit_to_durable_ms_p50", toDurable.median(), len(toDurable))
			out.set("remote.emit_to_durable_ms_p99", toDurable.quantile(0.99), len(toDurable))
			out.set("store.tail.durable_to_delivered_ms_p50", toDelivered.median(), len(toDelivered))
			out.set("store.tail.durable_to_delivered_ms_p99", toDelivered.quantile(0.99), len(toDelivered))
		}
	}
	return out
}
