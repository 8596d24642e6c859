package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"rhtm"
	"rhtm/containers"
	"rhtm/internal/enginetest/dbtest"
	"rhtm/kv"
	"rhtm/store"
	"rhtm/table"
	"rhtm/wal"
)

// The benchmark at 1/50 scale with 25 ms segments: small enough for tier-1,
// large enough that every phase, check and counter runs.
func testConfig(seed int64, trace bool) config {
	return config{seed: seed, timed: 300 * time.Millisecond, segment: 25 * time.Millisecond,
		warmup: 10 * time.Millisecond, trace: trace, scale: 50}
}

func mustRun(t *testing.T, w *workload, cfg config) result {
	t.Helper()
	res, err := runWorkload(w, cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

func TestBenchmarkJSONIsThisProgram(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the program's tables; regenerate it with: go run ./bench -describe > BENCHMARK.json")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Fatal("the contract caps per_layer at 128, end_to_end at 16, workloads at 8")
	}
}

// exactNames are the count-based metrics that must repeat to the last digit
// on the one-worker workloads.
func exactNames() []string {
	names := []string{"wal.bytes_per_op", "store.acc_per_get", "store.acc_per_put",
		"containers.acc_per_lookup", "containers.acc_per_update", "table.kv_calls_per_select"}
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "engine.") && !strings.Contains(d.name, "_us_") && !strings.Contains(d.name, "_ns_") ||
			strings.HasPrefix(d.name, "table.") && strings.HasSuffix(d.name, "_acc_per_op") {
			names = append(names, d.name)
		}
	}
	return names
}

// TestRepeatsAndAccounts runs every workload twice on one seed, traced, and
// once on another seed. Same seed: the same operation stream, and on the
// exact workloads the same counts. And on every counted pass the layers'
// self times must add up to the callers' time.
func TestRepeatsAndAccounts(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := mustRun(t, w, testConfig(7, true))
			b := mustRun(t, w, testConfig(7, true))
			other := mustRun(t, w, testConfig(8, true))
			if a.hash != b.hash {
				t.Errorf("same seed, op-stream hashes %016x and %016x", a.hash, b.hash)
			}
			if a.hash == other.hash {
				t.Errorf("seeds 7 and 8 generated the same operation stream")
			}
			if exactWorkloads[w.name] {
				if a.e2e["ops_per_kacc"] != b.e2e["ops_per_kacc"] || a.e2e["ops_per_kacc"] == 0 {
					t.Errorf("ops_per_kacc %v then %v", a.e2e["ops_per_kacc"], b.e2e["ops_per_kacc"])
				}
				for _, n := range exactNames() {
					if a.layer[n] != b.layer[n] {
						t.Errorf("%s: %v then %v", n, a.layer[n], b.layer[n])
					}
				}
				untraced := mustRun(t, w, testConfig(7, false))
				if untraced.e2e["ops_per_kacc"] != a.e2e["ops_per_kacc"] {
					t.Errorf("ops_per_kacc %v untraced, %v traced: spans moved a simulated count",
						untraced.e2e["ops_per_kacc"], a.e2e["ops_per_kacc"])
				}
			}
			for _, d := range endToEnd {
				if v := a.e2e[d.name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v; the contract wants it never 0", d.name, v)
				}
			}
			if len(a.Metrics) != len(perLayer) {
				t.Errorf("traced run reported %d metrics, want the %d per-layer ones", len(a.Metrics), len(perLayer))
			}

			acct := a.acct
			if acct.overflow || acct.spans == 0 || acct.rootTotal <= 0 {
				t.Fatalf("accounts: %+v", acct)
			}
			if gap := math.Abs(float64(acct.selfSum()-acct.rootTotal)) / float64(acct.rootTotal); gap > 0.01 {
				t.Errorf("layer self times sum to %d ns, root spans to %d ns (%.2f%% apart); unattributed %d ns",
					acct.selfSum(), acct.rootTotal, 100*gap, acct.unattributed)
			}
			if float64(-acct.negative) > 0.01*float64(acct.rootTotal) {
				t.Errorf("children outlive their parents by %d ns", -acct.negative)
			}
			if !w.inproc {
				// Unattributed time on the network workloads is the front end's
				// self time: reported, never dropped.
				want := float64(acct.self["client"]) / 1e3 / float64(e(w, 50).scaled(w.counted)/w.callers*w.callers)
				if got := a.layer["server.frontend_self_us_per_op"]; got <= 0 || math.Abs(got-want) > 1e-6*want {
					t.Errorf("server.frontend_self_us_per_op = %v, spans say %v", got, want)
				}
			}
		})
	}
}

func e(w *workload, scale int) *env {
	return &env{seed: 7, scale: scale, tr: newTracer(w.kinds, w.inproc, 0)}
}

func TestSizingGuard(t *testing.T) {
	cfg := testConfig(7, false)
	cfg.guard, cfg.timed, cfg.segment = true, 24*time.Millisecond, 2*time.Millisecond
	if _, err := runWorkload(&tableQuery, cfg, io.Discard); err == nil || !strings.Contains(err.Error(), "sizing") {
		t.Fatalf("2 ms segments of table queries hold under %d ops; want a sizing error, got %v", segmentFloor, err)
	}
	r := newRecorder(2)
	for i := 0; i < 3; i++ {
		r.add(time.Microsecond, time.Millisecond)
	}
	if _, err := summarize([]*recorder{r}, 1, time.Second); err == nil {
		t.Fatal("a full recorder must fail the run, not truncate it")
	}
}

// TestQuietWindow pins the estimators: of 20 segments, the 3rd fastest
// throughput, and the median over the faster ten.
func TestQuietWindow(t *testing.T) {
	r := newRecorder(20 * 40)
	for seg := 0; seg < 20; seg++ {
		// Segment seg completes 20+seg ops of latency (100-seg) µs.
		for i := 0; i < 20+seg; i++ {
			r.add(time.Duration(100-seg)*time.Microsecond, time.Duration(seg)*time.Second+time.Duration(i+1)*time.Millisecond)
		}
	}
	st, err := summarize([]*recorder{r}, 20, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The faster half is segments 10..19: 345 samples of 90..81 µs, the
	// 173rd smallest being 85.
	if st.opsPerS != 37 || st.p50us != 85 || st.quietOps != 345 {
		t.Fatalf("ops_per_s %v (want 37: third of 39, 38, 37), p50_us %v over %d (want 85 over 345)",
			st.opsPerS, st.p50us, st.quietOps)
	}
	if q1, q2, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v; Python's statistics.quantiles gives 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestChecksFire corrupts each workload's state or oracle and expects the
// workload's own check, or its caller, to say so.
func TestChecksFire(t *testing.T) {
	build := func(t *testing.T, w *workload) stack {
		st, err := w.build(e(w, 50))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.close)
		if err := st.check(); err != nil {
			t.Fatalf("fresh stack fails its check: %v", err)
		}
		return st
	}
	fires := func(t *testing.T, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("want an error mentioning %q, got %v", want, err)
		}
	}
	val := make([]byte, valueBytes)

	t.Run("rbtree-20", func(t *testing.T) {
		st := build(t, &rbtree20).(*rbStack)
		fires(t, st.caller(0, false).do(op{kind: rbLookup, rec: st.nodes + 5}), "not found")
		// The tree's root cell is the System's first allocation: the first
		// nonzero word. Overwrite the root node's key.
		a := rhtm.Addr(1)
		for st.sys.Peek(a) == 0 {
			a++
		}
		st.sys.Poke(rhtm.Addr(st.sys.Peek(a)), 1<<40)
		if st.check() == nil {
			t.Fatal("Validate accepted a root key out of order")
		}
	})
	t.Run("kv-a", func(t *testing.T) {
		st := build(t, &kvA).(*kvaStack)
		c := st.caller(0, false)
		st.oracle[3]++
		fires(t, c.do(op{kind: kvGet, rec: 3}), "oracle says")
		fires(t, st.check(), "kv-a oracle")
		st.oracle[3]--
		// A write behind the log's back: store and oracle agree, the log
		// cannot rebuild it.
		fillValue(val, st.e.seed, 5, 77)
		if err := st.sh.Put(containers.SetupTx(st.sys), appendKey(nil, "user", 5), val); err != nil {
			t.Fatal(err)
		}
		st.oracle[5] = 77
		fires(t, st.check(), "recovery lost an acknowledged write")
	})
	t.Run("net-c-closed", func(t *testing.T) {
		st := build(t, &netCClosed).(*netCStack)
		fillValue(val, st.e.seed, 2, 9)
		if err := st.sh.Put(containers.SetupTx(st.sys), appendKey(nil, "user", 2), val); err != nil {
			t.Fatal(err)
		}
		fires(t, st.caller(0, false).do(op{kind: netGet, rec: 2}), "not the loaded bytes")
		fires(t, st.check(), "net-c-closed")
	})
	t.Run("stack-a", func(t *testing.T) {
		st := build(t, &stackA).(*stackAStack)
		user1, acct := appendKey(nil, "user", 1), appendKey(nil, "acct", st.bySys[0][0])
		load := func(k, v []byte) {
			if err := st.c.Load(k, v); err != nil {
				t.Fatal(err)
			}
		}
		load(user1, []byte("torn"))
		fires(t, st.caller(0, false).do(op{kind: netGet, rec: 1}), "torn bytes")
		fires(t, st.check(), "torn bytes")
		fillValue(val, st.e.seed, 1, 0)
		load(user1, val) // as loaded, and as the replica has it

		bal := make([]byte, 8)
		binary.LittleEndian.PutUint64(bal, accountBalance+1)
		load(acct, bal)
		fires(t, st.check(), "a transfer tore")
		binary.LittleEndian.PutUint64(bal, accountBalance)
		load(acct, bal)

		// Written behind the log, the replica never hears: its revision
		// falls behind.
		fires(t, st.check(), "replica at revision")
		// Rewrite the replica's copies until its clocks catch up; then
		// write both sides behind their logs, differently: the revisions
		// agree and the contents do not.
		for _, k := range [][]byte{user1, acct} {
			i := st.c.Router().SystemFor(k)
			p, r := st.c.Node(i), st.replica.Node(i)
			v, _ := st.c.Peek(k)
			for r.Store().Events().Rev(containers.SetupTx(r.System())) < p.Store().Events().Rev(containers.SetupTx(p.System())) {
				if err := st.replica.Load(k, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.check(); err != nil {
			t.Fatalf("levelled replica: %v", err)
		}
		fillValue(val, st.e.seed, 1, 5)
		load(user1, val)
		fillValue(val, st.e.seed, 1, 6)
		if err := st.replica.Load(user1, val); err != nil {
			t.Fatal(err)
		}
		fires(t, st.check(), "replica differs")
	})
	t.Run("table-query", func(t *testing.T) {
		st := build(t, &tableQuery).(*tableStack)
		st.bucket[4]++
		fires(t, st.caller(0, false).do(op{kind: tqPoint, rec: 4}), "oracle bucket")
		fires(t, st.check(), "oracle bucket")
		st.bucket[4]--
		it := st.db.Scan(kv.IndexSpace, nil, 1)
		if !it.Next() {
			t.Fatal("no index entries")
		}
		if err := st.db.Delete(it.Key()); err != nil {
			t.Fatal(err)
		}
		fires(t, st.check(), "index disagrees")
	})
}

// TestDecoratorsPassThrough runs the repository's own kv.DB conformance
// battery through all three decorators with the tracer armed: whatever the
// battery can tell apart, a decorated stack and a bare one do not differ in.
func TestDecoratorsPassThrough(t *testing.T) {
	var _ rhtm.Engine = engineDecor{}
	var _ rhtm.Thread = (*threadDecor)(nil)
	var _ wal.Device = deviceDecor{}
	var _ wal.Storage = (*storageDecor)(nil)
	var _ kv.DB = (*dbDecor)(nil)
	if testing.Short() {
		t.Skip("the battery takes a few seconds")
	}
	dbtest.RunDB(t, "decorated", func(t *testing.T) (kv.DB, *kv.ManualClock, func() error) {
		tr := newTracer(nil, false, 1<<12)
		tr.arm()
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
		sh := store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13})
		stg := newStorageDecor(wal.NewMemStorage(), tr)
		dev, err := stg.Device("wal")
		if err != nil {
			t.Fatal(err)
		}
		clock := kv.NewManualClock()
		db, err := kv.OpenLocal(mixedEngine(s, 10, tr), sh, dev, kv.WithClock(clock))
		if err != nil {
			t.Fatal(err)
		}
		return &dbDecor{servedDB: db, tr: tr}, clock, sh.Validate
	})
}

// TestPointSelectKVCalls pins what a point Select costs the kv.DB under it
// today. The planner-statistics change is expected to lower it; that change
// then moves this number along with table.kv_calls_per_select.
func TestPointSelectKVCalls(t *testing.T) {
	stk, err := buildTableQuery(e(&tableQuery, 50))
	if err != nil {
		t.Fatal(err)
	}
	st := stk.(*tableStack)
	before := st.dbd.calls.Load()
	rows, err := st.tbl.Select(table.Query{Conds: []table.Cond{table.Eq("id", table.Int64(3))}})
	if err != nil || len(rows) != 1 {
		t.Fatalf("point Select: %d rows, %v", len(rows), err)
	}
	const today = 2 // the row Get, and one Update around it
	if got := st.dbd.calls.Load() - before; got != today {
		t.Fatalf("a point Select made %d kv.DB calls; pinned at %d", got, today)
	}
}
