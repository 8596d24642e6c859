package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("re-registering a counter must return the same instrument")
	}

	g := r.Gauge("g")
	g.Add(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}

	h := r.Histogram("h")
	for _, v := range []uint64{0, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	if hs := h.Snapshot(); hs.Count != 5 || hs.Sum != 1006 {
		t.Fatalf("hist count=%d sum=%d, want 5/1006", hs.Count, hs.Sum)
	}

	snap := r.Snapshot()
	if snap.Counter("c") != 5 || snap.Gauge("g") != 4 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	hs := snap.Histograms["h"]
	var total uint64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != 5 {
		t.Fatalf("bucket counts sum to %d, want 5", total)
	}
	// 0 → bucket le=0; 1 → le=1; 2,3 → le=3; 1000 → le=1023.
	want := map[uint64]uint64{0: 1, 1: 1, 3: 2, 1023: 1}
	for _, b := range hs.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
	}

	flat := snap.Flatten()
	if flat["c"] != 5 || flat["g"] != 4 || flat["h.count"] != 5 || flat["h.sum"] != 1006 {
		t.Fatalf("flatten mismatch: %v", flat)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := int64(0)
	r.GaugeFunc("depth", func() int64 { return v })
	v = 42
	if got := r.Snapshot().Gauge("depth"); got != 42 {
		t.Fatalf("gauge func sampled %d, want 42", got)
	}
}

func TestName(t *testing.T) {
	if got := Name("engine.commits", "path", "fast"); got != "engine.commits{path=fast}" {
		t.Fatalf("Name = %q", got)
	}
	if got := Name("plain"); got != "plain" {
		t.Fatalf("Name = %q", got)
	}
	if got := Name("x", "a", "1", "b", "2"); got != "x{a=1,b=2}" {
		t.Fatalf("Name = %q", got)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Histogram("h").Observe(9)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("a") != 1 || back.Histograms["h"].Count != 1 {
		t.Fatalf("round trip mismatch: %s", b)
	}
}

// TestNilRegistryNoop: the nil registry is the off switch — every lookup
// yields a working no-op instrument and Snapshot is empty.
func TestNilRegistryNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	r.GaugeFunc("f", func() int64 { return 1 })
	c.Inc()
	g.Add(3)
	h.Observe(5)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments must stay zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestNoopZeroAllocs is the satellite's acceptance check: the disabled
// instrument set — what a DB built with a nil registry threads through its
// Update hot path — performs zero allocations per operation.
func TestNoopZeroAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("kv.commits")
	g := r.Gauge("depth")
	h := r.Histogram("latency")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Add(1)
		g.Add(-1)
		h.Observe(123)
	})
	if allocs != 0 {
		t.Fatalf("no-op instruments allocate %.1f/op, want 0", allocs)
	}
}

// The live instruments must be allocation-free too once resolved.
func TestLiveZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(77)
	})
	if allocs != 0 {
		t.Fatalf("live instruments allocate %.1f/op, want 0", allocs)
	}
}

func TestRecordingTracer(t *testing.T) {
	tr := NewRecordingTracer()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spanLimit/4; i++ {
				tr.TxnAttempt(Span{Engine: "TL2", Attempt: i, Outcome: OutcomeConflict})
			}
		}()
	}
	wg.Wait()
	tr.TxnAttempt(Span{Engine: "TL2", Attempt: spanLimit, Outcome: OutcomeConflict})
	if got := len(tr.Spans()); got != spanLimit {
		t.Fatalf("retained %d of %d spans, want %d (bounded)", got, spanLimit+1, spanLimit)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Fatal("reset did not clear")
	}
}
