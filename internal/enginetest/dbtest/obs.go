package dbtest

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"rhtm/kv"
	"rhtm/obs"
	"rhtm/wal"
)

// The observability sections of the battery. DBMetrics drives a concurrent
// read-modify-write workload while sampling DB.Metrics from a racing
// reader — the snapshot must be safe to take mid-run, its commit counters
// must be monotone between samples, and the quiesced snapshot must agree
// with ground truth the test can compute (live keys, lease churn).
// DBTrace pins the tracer contract: one span per closure attempt with the
// attempt index, outcome, engine name, and commit revision — identical on
// both backends by construction, because retries are driven by the
// closure itself.

// engineCommits sums the four engine.commits paths of a snapshot.
func engineCommits(s obs.Snapshot) uint64 {
	var total uint64
	for _, path := range []string{"fast", "slow", "slowslow", "readonly"} {
		total += s.Counter(obs.Name("engine.commits", "path", path))
	}
	return total
}

// testDBMetrics checks the Metrics surface under concurrency and against
// ground truth after quiescence.
func testDBMetrics(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)

	// Baseline: a fresh DB must already expose the full fixed-name schema.
	base := db.Metrics()
	for _, name := range []string{
		obs.Name("engine.commits", "path", "fast"),
		obs.Name("engine.aborts", "path", "slow"),
		"engine.reads", "engine.writes",
	} {
		if _, ok := base.Counters[name]; !ok {
			t.Fatalf("fresh snapshot missing counter %q", name)
		}
	}
	for _, name := range []string{"store.live_keys", "store.pending_intents",
		"store.arena.live_words", "watch.queue_depth"} {
		if _, ok := base.Gauges[name]; !ok {
			t.Fatalf("fresh snapshot missing gauge %q", name)
		}
	}

	// Concurrent phase: writers run a YCSB-A-style read-modify-write mix
	// while a sampler takes snapshots. The race detector guards the
	// safety claim; the monotonicity check guards the semantics.
	const (
		workers = 4
		opsPer  = 120
		keys    = 8
	)
	var writersWg, samplerWg sync.WaitGroup
	stop := make(chan struct{})
	samples := make([]obs.Snapshot, 0, 64)
	samplerWg.Add(1)
	go func() {
		defer samplerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				samples = append(samples, db.Metrics())
			}
		}
	}()
	var werr error
	var werrMu sync.Mutex
	for w := 0; w < workers; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			for i := 0; i < opsPer; i++ {
				k := []byte(fmt.Sprintf("m-%d", (w+i)%keys))
				err := db.Update(func(tx kv.Txn) error {
					v, err := tx.Get(k)
					if err != nil && !errors.Is(err, kv.ErrNotFound) {
						return err
					}
					return tx.Put(k, append(v[:len(v):len(v)], byte(i)))
				})
				if err != nil {
					werrMu.Lock()
					werr = err
					werrMu.Unlock()
					return
				}
			}
		}(w)
	}
	// The sampler stops only after the writers are done, so the last
	// sample windows still see live traffic.
	writersWg.Wait()
	close(stop)
	samplerWg.Wait()
	if werr != nil {
		t.Fatalf("workload: %v", werr)
	}

	var prev uint64
	for i, s := range samples {
		c := engineCommits(s)
		if c < prev {
			t.Fatalf("sample %d: engine commits went backwards: %d -> %d", i, prev, c)
		}
		prev = c
	}

	// Quiesced ground truth. Every Update committed exactly once, so the
	// engine must report at least workers*opsPer commits (the stores'
	// internal traffic — watch setup, metrics sampling — only adds).
	snap := db.Metrics()
	if got := engineCommits(snap); got < workers*opsPer {
		t.Fatalf("engine commits %d < %d committed updates", got, workers*opsPer)
	}
	if got := snap.Gauge("store.live_keys"); got != keys {
		t.Fatalf("store.live_keys = %d, want %d", got, keys)
	}

	// Lease churn is counted at the kv layer, identically on both
	// backends.
	id, err := db.Grant(100)
	if err != nil {
		t.Fatalf("Grant: %v", err)
	}
	if err := db.KeepAlive(id); err != nil {
		t.Fatalf("KeepAlive: %v", err)
	}
	if err := db.Revoke(id); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	after := db.Metrics()
	for name, delta := range map[string]uint64{
		"lease.grants": 1, "lease.keepalives": 1, "lease.revokes": 1,
	} {
		if got := after.Counter(name) - snap.Counter(name); got != delta {
			t.Fatalf("%s moved by %d, want %d", name, got, delta)
		}
	}

	// The flattened view must agree with the structured one.
	flat := after.Flatten()
	if flat["lease.grants"] != int64(after.Counter("lease.grants")) {
		t.Fatalf("Flatten disagrees with Counter on lease.grants")
	}

	// Net rigs share one registry between the DB and its server, so the
	// same snapshot also carries the server.* taxonomy. The presence of
	// the connections gauge identifies such a backend; the rest of the
	// schema must then be populated and consistent with the workload that
	// just ran over the wire.
	if _, net := after.Gauges["server.connections"]; net {
		if after.Gauge("server.connections") <= 0 {
			t.Fatalf("server.connections = %d with a live client attached", after.Gauge("server.connections"))
		}
		for _, name := range []string{"server.bytes_in", "server.bytes_out"} {
			if after.Counter(name) == 0 {
				t.Fatalf("%s = 0 after a wire workload", name)
			}
		}
		for _, name := range []string{"server.request_ns", "server.batch_fill"} {
			if _, ok := after.Histograms[name]; !ok {
				t.Fatalf("net snapshot missing histogram %q", name)
			}
		}
		var reqs uint64
		for name, v := range after.Counters {
			if len(name) > len("server.requests") && name[:len("server.requests")] == "server.requests" {
				reqs += v
			}
		}
		if reqs == 0 {
			t.Fatalf("no server.requests{kind=...} counters moved during the workload")
		}
	}
	if validate != nil {
		if err := validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
	}
}

// testDBTrace pins the tracer contract: spans per closure attempt, with
// deterministic retries driven by the closure returning ErrConflict.
func testDBTrace(t *testing.T, factory DBFactory) {
	db, _, _ := factory(t)
	rec := obs.NewRecordingTracer()
	db.SetTracer(rec)

	// Three closure-requested conflicts, then a commit: exactly four
	// spans, attempts 0..3, outcomes conflict×3 then commit. This is the
	// substitution argument at the tracing layer — the schedule is driven
	// by the closure, so every engine and both backends must produce the
	// identical span sequence.
	tries := 0
	err := db.Update(func(tx kv.Txn) error {
		if err := tx.Put([]byte("traced"), []byte{byte(tries)}); err != nil {
			return err
		}
		tries++
		if tries <= 3 {
			return kv.ErrConflict
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(spans), spans)
	}
	for i, sp := range spans {
		if sp.Attempt != i {
			t.Errorf("span %d: attempt %d", i, sp.Attempt)
		}
		if sp.Engine == "" {
			t.Errorf("span %d: empty engine name", i)
		}
		want := obs.OutcomeConflict
		if i == 3 {
			want = obs.OutcomeCommit
		}
		if sp.Outcome != want {
			t.Errorf("span %d: outcome %q, want %q", i, sp.Outcome, want)
		}
		if sp.Outcome == obs.OutcomeCommit && sp.CommitRev == 0 {
			t.Errorf("span %d: committed write reported CommitRev 0", i)
		}
		if sp.Outcome != obs.OutcomeCommit && sp.CommitRev != 0 {
			t.Errorf("span %d: aborted attempt reported CommitRev %d", i, sp.CommitRev)
		}
	}

	// A write that lands between a closure's read and its commit is a
	// conflict the kv layer's one loop retries: the body runs twice, and
	// each run is a span — wherever the commit validation happens (the
	// cluster's buffered commit, the server behind the wire client).
	if optimisticClosures(db) {
		rec.Reset()
		read, write := []byte("trace-read"), []byte("trace-write")
		runs := 0
		err := db.Update(func(tx kv.Txn) error {
			runs++
			if _, err := tx.Get(read); err != nil && !errors.Is(err, kv.ErrNotFound) {
				return err
			}
			if runs == 1 {
				// Through a second session: the closure's read is now stale.
				if err := db.Put(read, []byte("interloper")); err != nil {
					return err
				}
			}
			return tx.Put(write, []byte{byte(runs)})
		})
		if err != nil {
			t.Fatalf("interleaved Update: %v", err)
		}
		spans := rec.Spans()
		if runs != 2 || len(spans) != 2 ||
			spans[0].Attempt != 0 || spans[0].Outcome != obs.OutcomeConflict ||
			spans[1].Attempt != 1 || spans[1].Outcome != obs.OutcomeCommit {
			t.Fatalf("interleaved write: body ran %d times, spans %+v; want 2 runs, [conflict@0 commit@1]", runs, spans)
		}
	}

	// A user error ends the loop with one "error" span carrying the text.
	rec.Reset()
	boom := errors.New("boom")
	if err := db.Update(func(tx kv.Txn) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Update: %v, want boom", err)
	}
	spans = rec.Spans()
	if len(spans) != 1 || spans[0].Outcome != obs.OutcomeError || spans[0].Err != "boom" {
		t.Fatalf("error spans = %+v, want one error span with text", spans)
	}

	// Detaching the tracer stops span emission.
	db.SetTracer(nil)
	rec.Reset()
	if err := db.Put([]byte("untraced"), []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := db.Update(func(tx kv.Txn) error { return nil }); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if got := rec.Spans(); len(got) != 0 {
		t.Fatalf("detached tracer still received %d spans", len(got))
	}
}

// optimisticClosures reports whether db runs Update closures outside any
// engine transaction, validating their reads only at commit — the cluster's
// buffered transactions and the wire client, told apart by the cluster.*
// counters or the server.* gauges their snapshots carry. There a write
// that lands mid-closure is a kv-level conflict, one span per body run. On
// Local the closure is one engine transaction: the engine absorbs that
// interleaving as an internal retry (no span), and a closure calling back
// into the DB from inside it may wait on itself.
func optimisticClosures(db kv.DB) bool {
	snap := db.Metrics()
	_, clustered := snap.Counters["cluster.local_txns"]
	_, net := snap.Gauges["server.connections"]
	return clustered || net
}

// testDBTraceFenced pins the span/result agreement on a durable DB whose
// log refuses the commit: a fenced writer turns the Update into
// kv.ErrFenced, and the attempt's span must say so — one error span, never
// a commit — on every backend, wherever its log publish happens.
func testDBTraceFenced(t *testing.T, rf RecoveryFactory) {
	rig := rf(t)
	if err := rig.DB.Put([]byte("fenced"), []byte("before")); err != nil {
		t.Fatalf("Put before the fence: %v", err)
	}
	rec := obs.NewRecordingTracer()
	rig.DB.SetTracer(rec)
	// Fence every log writer of the DB, as a promotion elsewhere would.
	db, ok := rig.DB.(interface{ WAL() *wal.Set })
	if !ok {
		t.Fatalf("%T exposes no log writer to fence", rig.DB)
	}
	for _, w := range db.WAL().Writers() {
		w.Fence()
	}
	err := rig.DB.Update(func(tx kv.Txn) error {
		return tx.Put([]byte("fenced"), []byte("after"))
	})
	if !errors.Is(err, kv.ErrFenced) {
		t.Fatalf("Update on a fenced DB: %v, want ErrFenced", err)
	}
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1: %+v", len(spans), spans)
	}
	if sp := spans[0]; sp.Outcome != obs.OutcomeError || sp.CommitRev != 0 || sp.Err != err.Error() {
		t.Fatalf("span %+v for an Update that returned %v", sp, err)
	}
}
