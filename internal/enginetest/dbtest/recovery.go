package dbtest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rhtm/kv"
)

// The crash-injection conformance section. A RecoveryRig wraps one durable
// DB (OpenLocal / OpenCluster over crash-injectable storage) with the
// hooks the battery needs: the log's crash-point coordinate space, a
// recover-at-cut constructor that opens a fresh backend over the crashed
// image, and an independent committed-prefix map oracle decoded from the
// same image. The section then checks, for a clean stop and for fuzzed
// crash offsets under a concurrent workload, that post-recovery state
// equals the oracle exactly — no torn transaction, the transfer invariant
// intact, revisions monotone across the crash, leases still attached.

// RecoveryRig is one durable DB under crash test.
type RecoveryRig struct {
	// DB is the running durable DB; Clock its virtual-time source.
	DB    kv.DB
	Clock *kv.ManualClock
	// LogBytes reports the storage's global append position — the
	// coordinate space crash cuts are taken in. A cut at LogBytes() is a
	// clean stop: everything appended survives.
	LogBytes func() uint64
	// RecoverAt clones the storage as of a crash at cut and opens a fresh
	// backend over the clone (the original DB keeps running). It returns
	// the recovered DB and its post-quiescence validate hook.
	RecoverAt func(cut uint64) (kv.DB, func() error, error)
	// OracleAt decodes the same crashed image with an independent
	// committed-prefix replayer into a plain map (reserved keys included).
	OracleAt func(cut uint64) (map[string][]byte, error)
}

// RecoveryFactory builds a fresh rig.
type RecoveryFactory func(t *testing.T) *RecoveryRig

// diffRecovered compares a recovered DB's full user keyspace against the
// oracle's user keys.
func diffRecovered(db kv.DB, oracle map[string][]byte) error {
	got := map[string][]byte{}
	it := db.Scan(nil, nil, 0)
	for it.Next() {
		got[string(it.Key())] = append([]byte(nil), it.Value()...)
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("recovered scan: %w", err)
	}
	want := map[string][]byte{}
	for k, v := range oracle {
		if len(k) > 0 && k[0] != 0x00 {
			want[k] = v
		}
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok {
			return fmt.Errorf("recovered state misses %q (oracle %x)", k, v)
		}
		if !bytes.Equal(gv, v) {
			return fmt.Errorf("recovered %q = %x, oracle %x", k, gv, v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("recovered state has phantom key %q", k)
		}
	}
	return nil
}

// testDBRecovery is the DBRecovery section.
func testDBRecovery(t *testing.T, rf RecoveryFactory) {
	t.Run("CleanStop", func(t *testing.T) { testRecoveryCleanStop(t, rf) })
	t.Run("CrashFuzz", func(t *testing.T) { testRecoveryCrashFuzz(t, rf) })
}

// testRecoveryCleanStop runs a deterministic sequential workload — one-shot
// ops, pair transactions, a mid-run checkpoint, lease traffic — then
// recovers at the clean-stop cut and demands exact equality with both a Go
// map oracle tracked alongside the run and the log-decoded oracle, plus
// monotone revisions, live watches, and working lease expiry across the
// crash.
func testRecoveryCleanStop(t *testing.T, rf RecoveryFactory) {
	rig := rf(t)
	db := rig.DB
	oracle := map[string][]byte{}
	rng := rand.New(rand.NewSource(42))
	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("rec-%02d", i)) }
	const keys = 12

	put := func(k, v []byte) {
		if err := db.Put(k, v); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
		oracle[string(k)] = v
	}
	for op := 0; op < 90; op++ {
		switch rng.Intn(5) {
		case 0, 1:
			v := make([]byte, rng.Intn(40)+1)
			rng.Read(v)
			put(keyOf(rng.Intn(keys)), v)
		case 2:
			k := keyOf(rng.Intn(keys))
			err := db.Delete(k)
			if _, ok := oracle[string(k)]; ok != (err == nil) {
				t.Fatalf("Delete(%s) err=%v, oracle present=%v", k, err, ok)
			}
			delete(oracle, string(k))
		case 3: // pair transaction: both halves carry the same payload
			a := []byte(fmt.Sprintf("pair-%02d-a", rng.Intn(4)))
			b := append(append([]byte(nil), a[:len(a)-1]...), 'b')
			v := make([]byte, 8)
			rng.Read(v)
			err := db.Update(func(tx kv.Txn) error {
				if err := tx.Put(a, v); err != nil {
					return err
				}
				return tx.Put(b, v)
			})
			if err != nil {
				t.Fatalf("pair update: %v", err)
			}
			oracle[string(a)], oracle[string(b)] = v, v
		default: // batch
			var ops []kv.Op
			for i := 0; i < 3; i++ {
				k := keyOf(rng.Intn(keys))
				v := make([]byte, 16)
				rng.Read(v)
				ops = append(ops, kv.Op{Kind: kv.OpPut, Key: k, Value: v})
				oracle[string(k)] = v
			}
			if _, err := db.Batch(ops); err != nil {
				t.Fatalf("batch: %v", err)
			}
		}
		if op == 45 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("mid-run checkpoint: %v", err)
			}
		}
	}

	// Lease traffic: one lease that must survive recovery with its key,
	// one revoked before the crash whose key must stay gone.
	live, err := db.Grant(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("leased-live"), []byte("v"), kv.WithLease(live)); err != nil {
		t.Fatal(err)
	}
	oracle["leased-live"] = []byte("v")
	dead, err := db.Grant(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("leased-dead"), []byte("v"), kv.WithLease(dead)); err != nil {
		t.Fatal(err)
	}
	if err := db.Revoke(dead); err != nil {
		t.Fatal(err)
	}

	preRev := map[string]kv.Revision{}
	for i := 0; i < keys; i++ {
		if _, rev, err := db.GetRev(keyOf(i)); err == nil {
			preRev[string(keyOf(i))] = rev
		}
	}

	cut := rig.LogBytes()
	db2, validate, err := rig.RecoverAt(cut)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	logOracle, err := rig.OracleAt(cut)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if err := diffRecovered(db2, logOracle); err != nil {
		t.Fatalf("recovered state vs log oracle: %v", err)
	}
	for k, v := range oracle {
		got, err := db2.Get([]byte(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("recovered %q = %x, %v; want %x", k, got, err, v)
		}
	}
	if _, err := db2.Get([]byte("leased-dead")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("revoked lease's key resurrected: %v", err)
	}

	// Revisions are monotone across the crash: recovered keys report their
	// pre-crash revision, and a fresh write advances past it.
	for k, want := range preRev {
		_, rev, err := db2.GetRev([]byte(k))
		if err != nil {
			t.Fatalf("GetRev(%s): %v", k, err)
		}
		if rev != want {
			t.Fatalf("recovered %q at revision %d, pre-crash %d", k, rev, want)
		}
	}
	if err := db2.Put(keyOf(0), []byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	_, rev, err := db2.GetRev(keyOf(0))
	if err != nil || rev <= preRev[string(keyOf(0))] {
		t.Fatalf("post-recovery write revision %d (err %v) not past pre-crash %d",
			rev, err, preRev[string(keyOf(0))])
	}

	// A replay reaching into the recovered range must lead with an
	// explicit EventLost: the rebuilt rings cannot prove that history
	// complete (checkpoints fold overwritten revisions and deletes away),
	// and silent thinning would break the watch contract.
	histCtx, histCancel := context.WithCancel(context.Background())
	histCh, err := db2.Watch(histCtx, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-histCh:
		if ev.Kind != kv.EventLost {
			t.Fatalf("fromRev replay into recovered history led with %+v, want EventLost", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fromRev replay into recovered history delivered nothing")
	}
	histCancel()

	// Watches resume on the recovered event plumbing.
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := db2.Watch(ctx, []byte("watch-"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Put([]byte("watch-k"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Kind != kv.EventPut || string(ev.Key) != "watch-k" {
			t.Fatalf("post-recovery watch event %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("post-recovery watch delivered nothing")
	}
	cancel()
	db2.WaitWatchIdle()

	// The recovered lease still expires on the recovered clock.
	clock2, ok := db2.Clock().(*kv.ManualClock)
	if !ok {
		t.Fatal("recovered DB lost its manual clock")
	}
	clock2.Advance(2000)
	if _, err := db2.ExpireLeases(); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Get([]byte("leased-live")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("recovered lease did not expire its key: %v", err)
	}
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

// testRecoveryCrashFuzz drives a concurrent transfer workload (conserved
// pair totals — the transfer invariant) plus an insert/delete toggler,
// then recovers at fuzz-chosen crash offsets, including cuts mid-record
// and cuts inside 2PC windows on the cluster. Every recovery must equal
// the log oracle exactly, keep the invariant (the initial funding batch
// and each transfer are atomic: totals are all-or-nothing), and pass the
// backend's structural validation.
func testRecoveryCrashFuzz(t *testing.T, rf RecoveryFactory) {
	for _, seed := range []int64{7, 8} {
		rig := rf(t)
		db := rig.DB
		const accounts = 8
		const initial = 1000
		acct := func(i int) []byte { return []byte(fmt.Sprintf("acct-%d", i)) }
		enc := func(v uint64) []byte {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			return b[:]
		}
		dec := func(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

		setup := make([]kv.Op, accounts)
		for i := range setup {
			setup[i] = kv.Op{Kind: kv.OpPut, Key: acct(i), Value: enc(initial)}
		}
		if _, err := db.Batch(setup); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(w)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					from, to := rng.Intn(accounts), rng.Intn(accounts)
					if from == to {
						continue
					}
					amt := uint64(rng.Intn(5) + 1)
					err := db.Update(func(tx kv.Txn) error {
						fv, err := tx.Get(acct(from))
						if err != nil {
							return err
						}
						f := dec(fv)
						if f < amt {
							return nil
						}
						tv, err := tx.Get(acct(to))
						if err != nil {
							return err
						}
						if err := tx.Put(acct(from), enc(f-amt)); err != nil {
							return err
						}
						return tx.Put(acct(to), enc(dec(tv)+amt))
					})
					if err != nil {
						t.Errorf("transfer: %v", err)
						return
					}
				}
			}()
		}
		// Toggler: marker pairs appear and vanish atomically.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				mA := []byte(fmt.Sprintf("mk-%d-a", i%3))
				mB := []byte(fmt.Sprintf("mk-%d-b", i%3))
				err := db.Update(func(tx kv.Txn) error {
					if err := tx.Put(mA, enc(uint64(i))); err != nil {
						return err
					}
					return tx.Put(mB, enc(uint64(i)))
				})
				if err == nil && i%2 == 1 {
					err = db.Update(func(tx kv.Txn) error {
						if err := tx.Delete(mA); err != nil {
							return err
						}
						return tx.Delete(mB)
					})
				}
				if err != nil {
					t.Errorf("toggler: %v", err)
					return
				}
			}
		}()
		wg.Wait()
		if t.Failed() {
			return
		}

		total := rig.LogBytes()
		rng := rand.New(rand.NewSource(seed))
		cuts := []uint64{0, total}
		for i := 0; i < 5; i++ {
			cuts = append(cuts, uint64(rng.Int63n(int64(total)+1)))
		}
		for _, cut := range cuts {
			db2, validate, err := rig.RecoverAt(cut)
			if err != nil {
				t.Fatalf("seed %d cut %d: recover: %v", seed, cut, err)
			}
			oracle, err := rig.OracleAt(cut)
			if err != nil {
				t.Fatalf("seed %d cut %d: oracle: %v", seed, cut, err)
			}
			if err := diffRecovered(db2, oracle); err != nil {
				t.Fatalf("seed %d cut %d: %v", seed, cut, err)
			}
			// Transfer invariant: the funding batch and every transfer are
			// atomic, so account totals are all-or-nothing.
			present, sum := 0, uint64(0)
			for i := 0; i < accounts; i++ {
				v, err := db2.Get(acct(i))
				if errors.Is(err, kv.ErrNotFound) {
					continue
				}
				if err != nil {
					t.Fatalf("seed %d cut %d: %v", seed, cut, err)
				}
				present++
				sum += dec(v)
			}
			if present != 0 && present != accounts {
				t.Fatalf("seed %d cut %d: funding batch torn: %d of %d accounts", seed, cut, present, accounts)
			}
			if present == accounts && sum != accounts*initial {
				t.Fatalf("seed %d cut %d: total %d, want %d — transfer torn by recovery",
					seed, cut, sum, accounts*initial)
			}
			// Marker pairs are atomic too.
			for i := 0; i < 3; i++ {
				_, errA := db2.Get([]byte(fmt.Sprintf("mk-%d-a", i)))
				_, errB := db2.Get([]byte(fmt.Sprintf("mk-%d-b", i)))
				if errors.Is(errA, kv.ErrNotFound) != errors.Is(errB, kv.ErrNotFound) {
					t.Fatalf("seed %d cut %d: phantom marker %d", seed, cut, i)
				}
			}
			if err := validate(); err != nil {
				t.Fatalf("seed %d cut %d: validate: %v", seed, cut, err)
			}
		}
	}
}
