// Package obs is the stack's unified observability surface: atomic
// counters, gauges, log-bucketed histograms, and a named registry that
// snapshots them all into one serializable structure. Every tier — the
// engines' live commit/abort taxonomy, store arena occupancy, 2PC phase
// timings, WAL group-commit amortization, watch-hub loss, lease churn —
// reports through it, and kv.DB.Metrics surfaces the combined snapshot
// identically on both backends.
//
// The design constraint is the hot path: instrumentation must be free when
// off and allocation-free when on. Both properties come from the same
// shape: instruments are resolved from the registry once, at construction
// time, and held as plain pointers; every instrument method is defined on
// the pointer type with an explicit nil check, so a nil *Registry hands
// out nil instruments and the call sites stay unconditional — a nil
// Counter.Add is a predicted-not-taken branch, no atomics, no allocation.
// Updating a live instrument is one atomic RMW.
//
// Names are flat strings; label sets are rendered into the name at
// registration time with Name (stable order), e.g.
// "engine.commits{path=fast}". The registry deduplicates by final name, so
// re-registering returns the same instrument.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The nil *Counter is a
// valid no-op instrument.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 on the nil instrument).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a level that Add moves up and down (queue depths, live
// counts). The nil *Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 on the nil instrument).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a Histogram: bucket i holds values
// whose bit length is i, i.e. value 0 in bucket 0 and otherwise
// [2^(i-1), 2^i). 64-bit values need at most bits.Len64 = 64, plus the
// zero bucket.
const histBuckets = 65

// Histogram is a log-bucketed (power-of-two) distribution — the right
// shape for latencies and sizes, where relative error matters and the
// range spans decades. Observe is one atomic add plus two for the
// count/sum, no allocation. The nil *Histogram is a valid no-op.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Snapshot captures the histogram's current state. The nil instrument
// snapshots empty. Exported so callers holding a bare *Histogram (the
// flight recorder's per-stage aggregates, rhtop) can summarize it with
// HistogramSnapshot.P without going through a Registry.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return h.snapshot()
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := uint64(0)
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		out.Buckets = append(out.Buckets, Bucket{Le: le, Count: n})
	}
	return out
}

// Name renders a base name plus label pairs into the registry's canonical
// flat form: base{k1=v1,k2=v2}, pairs in the order given. Callers pass
// pairs as k1, v1, k2, v2, ...; an odd tail is ignored. Label sets are
// stable by construction — the instrument is registered once with one
// rendering.
func Name(base string, labels ...string) string {
	if len(labels) < 2 {
		return base
	}
	out := base + "{"
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			out += ","
		}
		out += labels[i] + "=" + labels[i+1]
	}
	return out + "}"
}

// Registry is a named instrument set. The nil *Registry is a valid no-op
// registry: every lookup returns the nil instrument of its kind and
// Snapshot returns the zero Snapshot.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() int64{},
		hists:      map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback sampled at snapshot time — for values
// that are cheaper to compute on demand than to maintain (queue depths,
// occupancy). The last registration under a name wins.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every instrument's current value. Counters and gauges
// are atomically read individually; the snapshot as a whole is not a
// consistent cut across instruments (no instrumented path stops for it),
// which is the standard metrics contract.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		funcs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	// Gauge callbacks run outside the registry lock: they may take
	// subsystem locks of their own (watch hub, stores).
	for name, c := range counters {
		out.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		out.Gauges[name] = g.Value()
	}
	for name, fn := range funcs {
		out.Gauges[name] = fn()
	}
	for name, h := range hists {
		out.Histograms[name] = h.snapshot()
	}
	return out
}

// Bucket is one histogram bucket: Count observations with value <= Le
// (and greater than the previous bucket's Le).
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a histogram's captured state; only non-empty
// buckets are kept.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// P estimates the q-quantile (0 < q <= 1) of the observed distribution
// by linear interpolation inside the log₂ bucket holding rank
// ceil(q·Count). A bucket with upper bound Le = 2^i − 1 spans values
// [2^(i-1), Le] (bucket 0 holds only the value 0): the estimate is
// lo + frac·(hi − lo) where frac is the rank's position within the
// bucket, so the last rank of a bucket lands exactly on its Le boundary.
// Returns 0 on an empty snapshot.
func (h HistogramSnapshot) P(q float64) uint64 {
	if h.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range h.Buckets {
		if cum+b.Count < rank {
			cum += b.Count
			continue
		}
		if b.Le == 0 {
			return 0
		}
		lo := b.Le/2 + 1 // 2^(i-1) for Le = 2^i - 1
		hi := b.Le
		frac := float64(rank-cum) / float64(b.Count)
		return lo + uint64(frac*float64(hi-lo))
	}
	// Unreachable when bucket counts sum to Count; be defensive.
	if n := len(h.Buckets); n > 0 {
		return h.Buckets[n-1].Le
	}
	return 0
}

// Snapshot is one capture of a metrics surface, the type kv.DB.Metrics
// returns. It serializes directly to JSON.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns a counter's value by name (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge's value by name (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Flatten renders the snapshot as one flat name → value map: counters and
// gauges directly, histograms as name.count / name.sum. This is the form
// the harness embeds in JSONL rows and tests assert against.
func (s Snapshot) Flatten() map[string]int64 {
	out := make(map[string]int64, len(s.Counters)+len(s.Gauges)+2*len(s.Histograms))
	for name, v := range s.Counters {
		out[name] = int64(v)
	}
	for name, v := range s.Gauges {
		out[name] = v
	}
	for name, h := range s.Histograms {
		out[name+".count"] = int64(h.Count)
		out[name+".sum"] = int64(h.Sum)
	}
	return out
}
