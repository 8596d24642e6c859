package kv_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rhtm"
	"rhtm/internal/enginetest/dbtest"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/store"
)

// The overhead contract of the observability layer: instruments are
// pre-resolved at construction and the hot path touches only atomics, so
// an instrumented Update allocates exactly as much as one with metrics
// disabled (WithMetrics(nil) — every instrument a nil no-op). The
// benchmark quantifies the residual time cost on a YCSB-A-style mix.

// newBenchLocal builds an unsharded RH1 Local with the given metrics
// option, preloaded with n keys.
func newBenchLocal(tb testing.TB, n int, opts ...kv.Option) kv.DB {
	tb.Helper()
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	eng := rhtm.NewRH1(s, rhtm.RH1Options{MixPercent: 100})
	st := store.New(s, store.Options{ArenaWords: 1 << 15})
	db := kv.NewLocal(eng, st, opts...)
	for i := 0; i < n; i++ {
		if err := db.Put(benchKey(i), []byte("initial-value")); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

func benchKey(i int) []byte { return []byte(fmt.Sprintf("bench-%03d", i)) }

// updateOnce runs one read-modify-write Update on a preloaded key.
func updateOnce(db kv.DB, i int) error {
	k := benchKey(i % 64)
	return db.Update(func(tx kv.Txn) error {
		v, err := tx.Get(k)
		if err != nil {
			return err
		}
		return tx.Put(k, v)
	})
}

// TestMetricsZeroAllocOnHotPath asserts the instrumented Update hot path
// allocates no more than the fully no-op one. Comparing the two builds —
// rather than demanding an absolute number — keeps the test pinned to
// what obs promises (zero *added* allocations) without freezing the
// unrelated allocation profile of the kv layer itself.
func TestMetricsZeroAllocOnHotPath(t *testing.T) {
	instrumented := newBenchLocal(t, 64)              // default: fresh registry
	noop := newBenchLocal(t, 64, kv.WithMetrics(nil)) // every instrument nil
	run := func(db kv.DB) float64 {
		i := 0
		return testing.AllocsPerRun(200, func() {
			if err := updateOnce(db, i); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	base := run(noop)
	got := run(instrumented)
	if got > base {
		t.Fatalf("instrumented Update allocates %.1f allocs/op, no-op %.1f — instrumentation added allocations", got, base)
	}

	// Trace sampling off the sampled path is the same contract: a sampler
	// that never fires within the measured window (the warm-up run absorbs
	// the always-sampled first request) must add nothing over the no-op
	// build, and a DB without WithTraceSampling at all pays only the nil
	// sampler's predicted branch.
	sampled := newBenchLocal(t, 64, kv.WithMetrics(nil), kv.WithTraceSampling(1<<30))
	if got := run(sampled); got > base {
		t.Fatalf("sampling-armed Update allocates %.1f allocs/op off the sampled path, no-op %.1f — tracing added allocations", got, base)
	}

	// The no-op registry's own primitives are additionally pinned to an
	// absolute zero in obs's tests; here pin the one kv-level no-op site
	// reachable without a DB: a nil registry resolving instruments.
	var reg *obs.Registry
	if n := testing.AllocsPerRun(100, func() {
		reg.Counter("x").Inc()
		reg.Gauge("y").Add(1)
		reg.Histogram("z").Observe(1)
	}); n != 0 {
		t.Fatalf("nil registry hot path allocates %.1f allocs/op", n)
	}
}

// BenchmarkMetricsOverhead measures the instrumented vs metrics-disabled
// Update path on a YCSB-A-style 50/50 read/read-modify-write mix.
func BenchmarkMetricsOverhead(b *testing.B) {
	mix := func(b *testing.B, db kv.DB) {
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := benchKey(rng.Intn(64))
			if rng.Intn(2) == 0 {
				if _, err := db.Get(k); err != nil {
					b.Fatal(err)
				}
			} else if err := updateOnce(db, rng.Intn(64)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("instrumented", func(b *testing.B) {
		db := newBenchLocal(b, 64)
		mix(b, db)
	})
	b.Run("noop", func(b *testing.B) {
		db := newBenchLocal(b, 64, kv.WithMetrics(nil))
		mix(b, db)
	})
}

// TestTracerContract pins which operations report to a DB's tracer, on
// Local and on a 2-System ClusterDB alike: every attempt of an Update,
// Batch, GetRev, PutIf or DeleteIf is one span, and Get, Put, Delete and
// Scan emit none. Each operation below commits on its first attempt.
func TestTracerContract(t *testing.T) {
	for _, rig := range []struct {
		name    string
		factory dbtest.DBFactory
	}{{"Local", localFactory("RH1", 4, 0)}, {"Cluster2", clusterFactory("RH1", 2, 0)}} {
		t.Run(rig.name, func(t *testing.T) {
			db, _, validate := rig.factory(t)
			rec := obs.NewRecordingTracer()
			db.SetTracer(rec)
			key, val := []byte("traced-key"), []byte("v")
			for _, tc := range []struct {
				op    string
				spans int
				run   func() error
			}{
				{"Put", 0, func() error { return db.Put(key, val) }},
				{"Get", 0, func() error { _, err := db.Get(key); return err }},
				{"Scan", 0, func() error {
					it := db.Scan(nil, nil, 0)
					for it.Next() {
					}
					return it.Err()
				}},
				{"Batch", 1, func() error {
					_, err := db.Batch([]kv.Op{{Kind: kv.OpGet, Key: key}, {Kind: kv.OpPut, Key: key, Value: val}})
					return err
				}},
				{"Update", 1, func() error {
					return db.Update(func(tx kv.Txn) error { return tx.Put(key, val) })
				}},
				{"GetRev", 1, func() error { _, _, err := db.GetRev(key); return err }},
				{"PutIf", 1, func() error {
					_, rev, err := db.GetRev(key)
					rec.Reset() // GetRev's span is the row above's
					if err == nil {
						err = db.PutIf(key, val, rev)
					}
					return err
				}},
				{"DeleteIf", 1, func() error {
					_, rev, err := db.GetRev(key)
					rec.Reset()
					if err == nil {
						err = db.DeleteIf(key, rev)
					}
					return err
				}},
				{"Delete", 0, func() error {
					if err := db.Put(key, val); err != nil {
						return err
					}
					return db.Delete(key)
				}},
			} {
				rec.Reset()
				if err := tc.run(); err != nil {
					t.Fatalf("%s: %v", tc.op, err)
				}
				if got := len(rec.Spans()); got != tc.spans {
					t.Errorf("%s emitted %d spans, want %d", tc.op, got, tc.spans)
				}
			}
			if err := validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
