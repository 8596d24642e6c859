package kv_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rhtm"
	"rhtm/cluster"
	"rhtm/internal/enginetest/dbtest"
	"rhtm/kv"
	"rhtm/store"
	"rhtm/wal"
)

// newEngine builds the named engine on s with the given injected hardware
// abort percentage (ignored by the software-only TL2).
func newEngine(t *testing.T, s *rhtm.System, name string, inject int) rhtm.Engine {
	t.Helper()
	switch name {
	case "RH1":
		return rhtm.NewRH1(s, rhtm.RH1Options{MixPercent: 100, InjectAbortPercent: inject})
	case "RH2":
		return rhtm.NewRH2(s, rhtm.RH1Options{MixPercent: 100, InjectAbortPercent: inject})
	case "TL2":
		return rhtm.NewTL2(s)
	case "StdHyTM":
		return rhtm.NewStandardHyTM(s, rhtm.HWOptions{InjectAbortPercent: inject})
	case "NoRec":
		return rhtm.NewHybridNoRec(s, rhtm.HWOptions{InjectAbortPercent: inject})
	case "Phased":
		return rhtm.NewPhasedTM(s, rhtm.HWOptions{InjectAbortPercent: inject})
	default:
		t.Fatalf("unknown engine %q", name)
		return nil
	}
}

// allEngines is the full engine set the shared battery runs against.
var allEngines = []string{"RH1", "RH2", "TL2", "StdHyTM", "NoRec", "Phased"}

// localFactory builds a Local DB over a fresh System; shards=0 selects the
// unsharded Store.
func localFactory(engineName string, shards, inject int) dbtest.DBFactory {
	return func(t *testing.T) (kv.DB, *kv.ManualClock, func() error) {
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
		eng := newEngine(t, s, engineName, inject)
		clock := kv.NewManualClock()
		if shards == 0 {
			st := store.New(s, store.Options{ArenaWords: 1 << 14})
			return kv.NewLocal(eng, st, kv.WithClock(clock)), clock, st.Validate
		}
		sh := store.NewSharded(s, shards, store.Options{ArenaWords: 1 << 13})
		return kv.NewLocal(eng, sh, kv.WithClock(clock)), clock, sh.Validate
	}
}

// clusterFactory builds a ClusterDB over a fresh cluster with injected
// hardware aborts, so both the engines' fallback paths and 2PC's abort path
// get exercised.
func clusterFactory(engineName string, systems, inject int) dbtest.DBFactory {
	return func(t *testing.T) (kv.DB, *kv.ManualClock, func() error) {
		c, err := cluster.New(cluster.Config{
			Systems:    systems,
			ArenaWords: 1 << 13,
			NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
				return newEngine(t, s, engineName, inject), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		clock := kv.NewManualClock()
		return kv.NewCluster(c, kv.WithClock(clock)), clock, c.Validate
	}
}

// TestDBConformance is the tentpole acceptance: ONE battery, every engine,
// both implementations — the store-backed Local (sharded and unsharded) and
// the 2PC cluster (multi- and single-System) — with the crash-injection
// recovery section running against the durable Open paths of each.
func TestDBConformance(t *testing.T) {
	for _, eng := range allEngines {
		dbtest.RunDB(t, "Local/Sharded4/"+eng, localFactory(eng, 4, 10),
			dbtest.WithRecovery(localRecoveryFactory(eng, 4, 10)),
			dbtest.WithReplication(localReplFactory(eng, 4, 10)))
		dbtest.RunDB(t, "Cluster3/"+eng, clusterFactory(eng, 3, 20),
			dbtest.WithRecovery(clusterRecoveryFactory(eng, 3, 20)),
			dbtest.WithReplication(clusterReplFactory(eng, 3, 20)))
	}
	// The unsharded store and the degenerate one-System cluster share the
	// same contract; a spot check per family keeps the matrix tractable.
	dbtest.RunDB(t, "Local/Store/RH1", localFactory("RH1", 0, 10),
		dbtest.WithRecovery(localRecoveryFactory("RH1", 0, 10)))
	dbtest.RunDB(t, "Local/Store/TL2", localFactory("TL2", 0, 0),
		dbtest.WithRecovery(localRecoveryFactory("TL2", 0, 0)))
	dbtest.RunDB(t, "Cluster1/RH1", clusterFactory("RH1", 1, 20),
		dbtest.WithRecovery(clusterRecoveryFactory("RH1", 1, 20)))
}

// --- sentinel errors ---

func TestSentinelNotFound(t *testing.T) {
	for _, f := range map[string]dbtest.DBFactory{
		"local":   localFactory("TL2", 2, 0),
		"cluster": clusterFactory("TL2", 2, 0),
	} {
		db, _, _ := f(t)
		if _, err := db.Get([]byte("nope")); !errors.Is(err, kv.ErrNotFound) {
			t.Errorf("Get missing: %v, want ErrNotFound", err)
		}
		if err := db.Delete([]byte("nope")); !errors.Is(err, kv.ErrNotFound) {
			t.Errorf("Delete missing: %v, want ErrNotFound", err)
		}
		err := db.Update(func(tx kv.Txn) error {
			_, err := tx.Get([]byte("nope"))
			if !errors.Is(err, kv.ErrNotFound) {
				return fmt.Errorf("tx.Get missing: %v", err)
			}
			if err := tx.Delete([]byte("nope")); !errors.Is(err, kv.ErrNotFound) {
				return fmt.Errorf("tx.Delete missing: %v", err)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
}

func TestSentinelCapacity(t *testing.T) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 14))
	st := store.New(s, store.Options{ArenaWords: 256})
	db := kv.NewLocal(rhtm.NewTL2(s), st)
	// Oversized value: the largest class is 1<<15 words of payload.
	huge := make([]byte, 1<<19)
	if err := db.Put([]byte("k"), huge); !errors.Is(err, kv.ErrTooLarge) {
		t.Fatalf("oversized Put: %v, want ErrTooLarge", err)
	}
	// Fill the tiny arena until it reports exhaustion.
	var err error
	for i := 0; i < 64 && err == nil; i++ {
		err = db.Put([]byte(fmt.Sprintf("key-%02d", i)), make([]byte, 64))
	}
	if !errors.Is(err, kv.ErrArenaFull) {
		t.Fatalf("arena fill: %v, want ErrArenaFull", err)
	}
}

// TestUpdateRetriesOnErrConflict: a closure returning ErrConflict is
// re-executed (the explicit retry request of the policy), and nothing it
// wrote in failed attempts survives.
func TestUpdateRetriesOnErrConflict(t *testing.T) {
	for name, f := range map[string]dbtest.DBFactory{
		"local":   localFactory("TL2", 2, 0),
		"cluster": clusterFactory("TL2", 2, 0),
	} {
		db, _, _ := f(t)
		attempts := 0
		err := db.Update(func(tx kv.Txn) error {
			attempts++
			if err := tx.Put([]byte("k"), []byte(fmt.Sprintf("attempt-%d", attempts))); err != nil {
				return err
			}
			if attempts < 3 {
				return kv.ErrConflict
			}
			return nil
		})
		if err != nil || attempts != 3 {
			t.Fatalf("%s: err=%v attempts=%d, want nil/3", name, err, attempts)
		}
		v, err := db.Get([]byte("k"))
		if err != nil || string(v) != "attempt-3" {
			t.Fatalf("%s: k = %q, %v", name, v, err)
		}
	}
}

// --- cursor behavior ---

// TestLocalCursorChunks: the in-transaction cursor fetches the index in
// chunks; entries, order and bounds must be exact across chunk boundaries
// (the chunk size is 32, so 100 keys cross several).
func TestLocalCursorChunks(t *testing.T) {
	db, _, _ := localFactory("TL2", 4, 0)(t)
	const n = 100
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	err := db.Update(func(tx kv.Txn) error {
		it := tx.Scan([]byte("key-010"), []byte("key-090"), 0)
		i := 10
		for it.Next() {
			if want := fmt.Sprintf("key-%03d", i); string(it.Key()) != want {
				return fmt.Errorf("cursor at %q, want %q", it.Key(), want)
			}
			if want := fmt.Sprintf("v%d", i); string(it.Value()) != want {
				return fmt.Errorf("cursor value %q, want %q", it.Value(), want)
			}
			i++
		}
		if err := it.Err(); err != nil {
			return err
		}
		if i != 90 {
			return fmt.Errorf("cursor stopped at %d, want 90", i)
		}
		// Bounded cursor: exactly limit entries.
		it = tx.Scan(nil, nil, 37)
		count := 0
		for it.Next() {
			count++
		}
		if count != 37 {
			return fmt.Errorf("limit 37 cursor yielded %d", count)
		}
		return it.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- batch amortization (acceptance criterion) ---

// TestBatchAmortization: grouping independent puts into one transaction
// must cost measurably fewer simulated shared accesses per operation than
// one transaction per put — the per-transaction overhead (clock reads,
// commit validation, metadata) amortizes over the batch.
func TestBatchAmortization(t *testing.T) {
	const ops = 64
	run := func(batch int) float64 {
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
		eng := rhtm.NewTL2(s)
		sh := store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13})
		db := kv.NewLocal(eng, sh)
		val := bytes.Repeat([]byte{7}, 32)
		if batch <= 1 {
			for i := 0; i < ops; i++ {
				if err := db.Put([]byte(fmt.Sprintf("key-%03d", i)), val); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for i := 0; i < ops; i += batch {
				var group []kv.Op
				for j := i; j < i+batch && j < ops; j++ {
					group = append(group, kv.Op{Kind: kv.OpPut,
						Key: []byte(fmt.Sprintf("key-%03d", j)), Value: val})
				}
				if _, err := db.Batch(group); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := eng.Snapshot()
		total := st.Reads + st.Writes + st.MetadataReads + st.MetadataWrites
		return float64(total) / float64(ops)
	}
	single := run(1)
	batched := run(16)
	t.Logf("accesses/op: single=%.1f batch16=%.1f", single, batched)
	if batched >= single*0.95 {
		t.Fatalf("batching shows no amortization: single=%.1f accesses/op, batch16=%.1f", single, batched)
	}
}

// TestClusterDBHighConcurrency pins the client-pool policy: concurrency far
// above any internal pool size must reuse pooled clients rather than
// registering fresh engine threads per call (a dropped client leaks its
// per-System thread registrations until NewThread panics).
func TestClusterDBHighConcurrency(t *testing.T) {
	db, _, validate := clusterFactory("TL2", 2, 0)(t)
	var wg sync.WaitGroup
	for g := 0; g < 100; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := []byte(fmt.Sprintf("key-%03d", (g*7+i)%50))
				if err := db.Put(key, []byte{byte(i)}); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, err := db.Get(key); err != nil && !errors.Is(err, kv.ErrNotFound) {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDomains pins the commit-domain surface front ends group by: a cluster
// has one domain per System and places a key where its router does — checked
// on the published FNV-1a vectors the routing hash is pinned to — and a
// single System is one domain whatever its shard count.
func TestDomains(t *testing.T) {
	golden := map[string]uint64{
		"":       0xcbf29ce484222325,
		"a":      0xaf63dc4c8601ec8c,
		"foobar": 0x85944171f73967e8,
	}
	for _, systems := range []int{1, 2, 3} {
		db, _, _ := clusterFactory("TL2", systems, 0)(t)
		cdb := db.(*kv.ClusterDB)
		if got := cdb.Domains(); got != systems {
			t.Fatalf("%d Systems: Domains() = %d", systems, got)
		}
		for k, h := range golden {
			want := int(h % uint64(systems))
			if got, routed := cdb.Domain([]byte(k)), cdb.Cluster().Router().SystemFor([]byte(k)); got != want || routed != want {
				t.Errorf("%d Systems: Domain(%q) = %d, router says %d, FNV-1a says %d", systems, k, got, routed, want)
			}
		}
	}
	local, _, _ := localFactory("TL2", 4, 0)(t)
	if got := local.Domains(); got != 1 {
		t.Fatalf("Local over 4 shards: Domains() = %d, want 1", got)
	}
	for k := range golden {
		if got := local.Domain([]byte(k)); got != 0 {
			t.Errorf("Local: Domain(%q) = %d, want 0", k, got)
		}
	}
}

// --- coordination surface ---

// TestReservedKeys: the system namespace (empty key, leading 0x00) is
// rejected by every user-facing op and invisible to scans, on both
// backends — lease records must be unreachable from user code.
func TestReservedKeys(t *testing.T) {
	for name, f := range map[string]dbtest.DBFactory{
		"local":   localFactory("TL2", 2, 0),
		"cluster": clusterFactory("TL2", 2, 0),
	} {
		db, _, _ := f(t)
		for _, key := range [][]byte{nil, {}, {0x00}, []byte("\x00lease")} {
			if err := db.Put(key, []byte("v")); !errors.Is(err, kv.ErrReservedKey) {
				t.Errorf("%s: Put(%q) err = %v, want ErrReservedKey", name, key, err)
			}
			if _, err := db.Get(key); !errors.Is(err, kv.ErrReservedKey) {
				t.Errorf("%s: Get(%q) err = %v, want ErrReservedKey", name, key, err)
			}
			if err := db.Delete(key); !errors.Is(err, kv.ErrReservedKey) {
				t.Errorf("%s: Delete(%q) err = %v, want ErrReservedKey", name, key, err)
			}
		}
		err := db.Update(func(tx kv.Txn) error {
			if err := tx.Put([]byte{0}, []byte("v")); !errors.Is(err, kv.ErrReservedKey) {
				return fmt.Errorf("tx.Put reserved: %v", err)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Lease records exist in the keyspace but never leak into scans.
		if _, err := db.Grant(100); err != nil {
			t.Fatal(err)
		}
		if err := db.Put([]byte("visible"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		it := db.Scan(nil, nil, 0)
		for it.Next() {
			if len(it.Key()) == 0 || it.Key()[0] == 0x00 {
				t.Errorf("%s: scan leaked reserved key %q", name, it.Key())
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWatchReportsLoss: a watcher asking for history the bounded commit
// log no longer retains must receive an explicit EventLost marker, then
// the retained tail in order — never a silent gap.
func TestWatchReportsLoss(t *testing.T) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	// A tiny ring (the store enforces its 64-word floor) overflows fast.
	st := store.New(s, store.Options{ArenaWords: 1 << 14, LogWords: 1})
	db := kv.NewLocal(rhtm.NewTL2(s), st)
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k-%02d", i%5)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := db.Watch(ctx, nil, 1) // replay from the beginning of history
	if err != nil {
		t.Fatal(err)
	}
	first := <-ch
	if first.Kind != kv.EventLost {
		t.Fatalf("first replayed event = %+v, want EventLost", first)
	}
	// The retained tail follows, per-key ordered; the newest write (the
	// 50th revision) appears. No watch was open while it was written, so
	// it is found by key and revision: its value was not copied.
	sawNewest := false
	lastRev := map[string]kv.Revision{}
	deadline := time.After(10 * time.Second)
	for !sawNewest {
		select {
		case ev := <-ch:
			if ev.Kind != kv.EventPut {
				t.Fatalf("unexpected event %+v", ev)
			}
			if ev.Rev <= lastRev[string(ev.Key)] {
				t.Fatalf("per-key order violated after loss: %+v", ev)
			}
			lastRev[string(ev.Key)] = ev.Rev
			if string(ev.Key) == "k-04" && ev.Rev == 50 {
				sawNewest = true
			}
		case <-deadline:
			t.Fatal("newest event never replayed")
		}
	}
}

// TestWatchReportsDroppedKey: an event whose key exceeds what the bounded
// commit log can record is refused by the ring; the watcher must still see
// an explicit EventLost marker rather than a silent gap.
func TestWatchReportsDroppedKey(t *testing.T) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	st := store.New(s, store.Options{ArenaWords: 1 << 14, LogWords: 1}) // 64-word floor
	db := kv.NewLocal(rhtm.NewTL2(s), st)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := db.Watch(ctx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	huge := append([]byte("big-"), bytes.Repeat([]byte{'k'}, 400)...)
	if err := db.Put(huge, []byte("v")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Kind != kv.EventLost {
			t.Fatalf("dropped-key write delivered %+v, want EventLost", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dropped-key write produced no EventLost")
	}
}

// TestClusterGetRevIsOneTransaction: a closure that made one committed read
// and nothing else commits without a second engine transaction — the read is
// its own snapshot — so GetRev on a cluster costs the owning System exactly
// one commit (it cost two: the read, then commitLocal re-validating it). The
// rule must not widen: a read-only closure with two reads still validates,
// and still loses to a write that lands between them.
func TestClusterGetRevIsOneTransaction(t *testing.T) {
	db, _, _ := clusterFactory("TL2", 2, 0)(t)
	cdb := db.(*kv.ClusterDB)
	// Two keys of one System, so the two-read closure takes the local commit.
	a, b := []byte("user00000000"), []byte(nil)
	for i := 1; b == nil; i++ {
		if k := []byte(fmt.Sprintf("user%08d", i)); cdb.Domain(k) == cdb.Domain(a) {
			b = k
		}
	}
	for _, k := range [][]byte{a, b} {
		if err := db.Put(k, []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	eng := cdb.Cluster().Node(cdb.Domain(a)).Engine()
	commits, local := eng.Snapshot().Commits(), cdb.Cluster().Counters().LocalTxns
	if v, rev, err := db.GetRev(a); err != nil || string(v) != "v0" || rev == 0 {
		t.Fatalf("GetRev = %q, %d, %v", v, rev, err)
	}
	if got := eng.Snapshot().Commits() - commits; got != 1 {
		t.Errorf("GetRev cost the owning System %d engine transactions, want 1", got)
	}
	if got := cdb.Cluster().Counters().LocalTxns - local; got != 1 {
		t.Errorf("GetRev counted as %d local transactions, want 1", got)
	}

	attempts := 0
	var seen string
	commits = eng.Snapshot().Commits()
	err := db.Update(func(tx kv.Txn) error {
		attempts++
		va, err := tx.Get(a)
		if err != nil {
			return err
		}
		if attempts == 1 {
			if err := db.Put(a, []byte("v1")); err != nil {
				return err
			}
		}
		_, err = tx.Get(b)
		seen = string(va)
		return err
	})
	if err != nil || attempts != 2 || seen != "v1" {
		t.Fatalf("two-read closure over a concurrent write: err=%v attempts=%d saw %q, want nil/2/v1", err, attempts, seen)
	}
	// Two reads, the Put and a refused validation (an abort, not a commit);
	// then two reads and the validation that passes.
	if got := eng.Snapshot().Commits() - commits; got != 6 {
		t.Errorf("the two attempts and the write cost %d engine transactions, want 6", got)
	}
}

// TestClusterSingleKeyOps: on a cluster a single-key Get, Put or Delete is a
// one-op batch — one engine transaction on the owning System, one local
// transaction, and one commit unit on that System's stream when it changed
// something. A reserved key is refused before any transaction runs.
func TestClusterSingleKeyOps(t *testing.T) {
	c, err := cluster.New(cluster.Config{Systems: 2, ArenaWords: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	db, err := kv.OpenCluster(c, wal.NewMemStorage())
	if err != nil {
		t.Fatal(err)
	}
	id := db.Domain(singleKey)
	eng, stream := c.Node(id).Engine(), c.WAL().Data[id]
	checkSingleKeyOps(t, db, func() uint64 { return stream.Stats().Txns }, map[string]func() uint64{
		"engine transactions on the owning System": func() uint64 { return eng.Snapshot().Commits() },
		"local transactions":                       func() uint64 { return c.Counters().LocalTxns },
	})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLocalSingleKeyOps: on Local a single-key operation is the same one-op
// batch — one engine transaction, and one commit unit on the log when it
// changed something — so running it as a batch adds no transaction.
func TestLocalSingleKeyOps(t *testing.T) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	eng := newEngine(t, s, "RH1", 0)
	sh := store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13})
	db, err := kv.OpenLocal(eng, sh, &wal.MemDevice{})
	if err != nil {
		t.Fatal(err)
	}
	checkSingleKeyOps(t, db, func() uint64 { return db.WAL().Stats().Txns }, map[string]func() uint64{
		"engine transactions": func() uint64 { return eng.Snapshot().Commits() },
	})
	if err := sh.Validate(); err != nil {
		t.Fatal(err)
	}
}

var singleKey = []byte("user00000001")

// checkSingleKeyOps runs single-key operations on singleKey, and on a
// reserved key, and checks what each costs: every counter in txns grows by
// one per operation and units (the commit units logged) by one when the
// operation changed something; a reserved key costs neither.
func checkSingleKeyOps(t *testing.T, db kv.DB, units func() uint64, txns map[string]func() uint64) {
	t.Helper()
	for _, tc := range []struct {
		name           string
		op             func() error
		wantErr        error
		commits, units uint64
	}{
		{"put new", func() error { return db.Put(singleKey, []byte("v1")) }, nil, 1, 1},
		{"put overwrite", func() error { return db.Put(singleKey, []byte("v2")) }, nil, 1, 1},
		{"get", func() error {
			v, err := db.Get(singleKey)
			if err == nil && string(v) != "v2" {
				return fmt.Errorf("Get = %q, want v2", v)
			}
			return err
		}, nil, 1, 0},
		{"delete present", func() error { return db.Delete(singleKey) }, nil, 1, 1},
		{"delete absent", func() error { return db.Delete(singleKey) }, kv.ErrNotFound, 1, 0},
		{"get absent", func() error { _, err := db.Get(singleKey); return err }, kv.ErrNotFound, 1, 0},
		{"reserved put", func() error { return db.Put([]byte("\x00sys"), []byte("v")) }, kv.ErrReservedKey, 0, 0},
		{"reserved get", func() error { _, err := db.Get(nil); return err }, kv.ErrReservedKey, 0, 0},
	} {
		before, logged := map[string]uint64{}, units()
		for name, n := range txns {
			before[name] = n()
		}
		if err := tc.op(); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
		for name, n := range txns {
			if got := n() - before[name]; got != tc.commits {
				t.Errorf("%s: %d %s, want %d", tc.name, got, name, tc.commits)
			}
		}
		if got := units() - logged; got != tc.units {
			t.Errorf("%s: %d commit units logged, want %d", tc.name, got, tc.units)
		}
	}
}
