package obs

import (
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "other help ignored")
	if a != b {
		t.Fatal("same name must return the same counter instance")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("shared instance: got %d, want 3", b.Value())
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two types must panic")
		}
	}()
	r.Gauge("m", "h")
}

func TestNopRegistryIsFree(t *testing.T) {
	r := Nop()
	c := r.Counter("c", "h")
	if c != nil {
		t.Fatal("nop registry must return nil metrics")
	}
	// All of these must be safe no-ops on nil receivers.
	c.Inc()
	c.Add(7)
	r.Gauge("g", "h").Set(5)
	r.Gauge("g", "h").Add(-1)
	r.ShardedCounter("s", "h").Inc(3)
	r.ShardedCounter("s", "h").Add(3, 9)
	r.ShardedGauge("sg", "h").Add(1, -2)
	r.Histogram("hi", "h").Observe(42)
	r.CounterVec("v", "h", "l").With("x").Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter value must be 0")
	}
	if got := r.Snapshot(); len(got.Metrics) != 0 {
		t.Fatalf("nop snapshot must be empty, got %d metrics", len(got.Metrics))
	}
}

func TestShardedCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.ShardedCounter("writes_total", "h")
	g := r.ShardedGauge("buf_bytes", "h")
	const ranks, per = 16, 1000
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(rank)
				g.Add(rank, 2)
				g.Add(rank, -1)
			}
		}(rank)
	}
	wg.Wait()
	if got := c.Value(); got != ranks*per {
		t.Fatalf("sharded counter: got %d, want %d", got, ranks*per)
	}
	if got := g.Value(); got != ranks*per {
		t.Fatalf("sharded gauge: got %d, want %d", got, ranks*per)
	}
}

func TestShardedRankMasking(t *testing.T) {
	r := NewRegistry()
	c := r.ShardedCounter("c", "h")
	// Out-of-range and negative ranks must land in some cell, not crash.
	c.Inc(-1)
	c.Inc(NumShards)
	c.Inc(3 * NumShards)
	if got := c.Value(); got != 3 {
		t.Fatalf("got %d, want 3", got)
	}
}

// TestSnapshotDuringWrites takes snapshots while writers are incrementing;
// run under -race this is the registry's central concurrency guarantee.
func TestSnapshotDuringWrites(t *testing.T) {
	r := NewRegistry()
	c := r.ShardedCounter("c_total", "h")
	h := r.Histogram("h_ns", "h")
	v := r.CounterVec("v_total", "h", "rule")
	done := make(chan struct{})
	var wg sync.WaitGroup
	for rank := 0; rank < 4; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				c.Inc(rank)
				h.Observe(uint64(i))
				v.With("a").Inc()
			}
		}(rank)
	}
	var last uint64
	for i := 0; i < 50; i++ {
		s := r.Snapshot()
		m, ok := s.Get("c_total")
		if !ok {
			t.Fatal("snapshot missing c_total")
		}
		if uint64(m.Value) < last {
			t.Fatalf("counter went backwards: %v < %d", m.Value, last)
		}
		last = uint64(m.Value)
		if hm, ok := s.Get("h_ns"); ok {
			var cum uint64
			for _, b := range hm.Buckets {
				if b.Count < cum {
					t.Fatal("histogram buckets not cumulative")
				}
				cum = b.Count
			}
			if cum != hm.Count {
				t.Fatalf("top bucket %d is not the count %d", cum, hm.Count)
			}
		}
	}
	close(done)
	wg.Wait()
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help")
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1010 {
		t.Fatalf("count=%d sum=%d, want 6/1010", h.Count(), h.Sum())
	}
	m, _ := r.Snapshot().Get("h")
	// Cumulative counts at le = 0, 1, 3, 7, ..., up to the top nonzero bucket.
	want := map[float64]uint64{0: 1, 1: 2, 3: 4, 7: 5, 1023: 6}
	for _, b := range m.Buckets {
		if w, ok := want[b.LE]; ok && b.Count != w {
			t.Fatalf("bucket le=%v: got %d, want %d", b.LE, b.Count, w)
		}
	}
	last := m.Buckets[len(m.Buckets)-1]
	if last.Count != 6 {
		t.Fatalf("top bucket must hold all observations, got %d", last.Count)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("faults_total", "h", "rule")
	v.With("0").Add(2)
	v.With("slow").Inc()
	if a, b := v.With("0"), v.With("0"); a != b {
		t.Fatal("same label must return the same child")
	}
	s := r.Snapshot()
	var seen int
	for _, m := range s.Metrics {
		if m.Name != "faults_total" {
			continue
		}
		seen++
		switch m.LabelValue {
		case "0":
			if m.Value != 2 {
				t.Fatalf("rule 0: got %v", m.Value)
			}
		case "slow":
			if m.Value != 1 {
				t.Fatalf("slow: got %v", m.Value)
			}
		default:
			t.Fatalf("unexpected label %q", m.LabelValue)
		}
		if m.LabelKey != "rule" {
			t.Fatalf("label key: got %q", m.LabelKey)
		}
	}
	if seen != 2 {
		t.Fatalf("want 2 children, saw %d", seen)
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z", "h").Inc()
	r.Counter("a", "h").Inc()
	r.CounterVec("m", "h", "l").With("b").Inc()
	r.CounterVec("m", "h", "l").With("a").Inc()
	s := r.Snapshot()
	for i := 1; i < len(s.Metrics); i++ {
		p, q := s.Metrics[i-1], s.Metrics[i]
		if p.Name > q.Name || (p.Name == q.Name && p.LabelValue > q.LabelValue) {
			t.Fatalf("snapshot not sorted: %s/%s before %s/%s",
				p.Name, p.LabelValue, q.Name, q.LabelValue)
		}
	}
}
