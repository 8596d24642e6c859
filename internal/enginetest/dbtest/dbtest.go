// Package dbtest holds the kv.DB conformance battery — the enginetest-style
// suite for the unified data-layer contract. It lives beside enginetest
// rather than inside it because the raw engine batteries are imported by
// the engine packages' own tests, below rhtm in the import graph, while
// this battery necessarily imports kv (and through it the whole stack).
package dbtest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rhtm/internal/linearize"
	"rhtm/kv"
)

// errUserAbort is the sentinel user error of the oracle scripts: a closure
// returning it must roll back completely and surface it unchanged.
var errUserAbort = errors.New("dbtest: user abort")

// DBFactory builds a fresh kv.DB under test plus the ManualClock it was
// constructed over (the battery's lease sections drive expiry through it)
// and a validate hook run after a workload quiesces (store invariants,
// intent quiescence, decision-log consistency — whatever the
// implementation can check).
type DBFactory func(t *testing.T) (db kv.DB, clock *kv.ManualClock, validate func() error)

// RunDB executes the key-value conformance battery against any kv.DB — the
// single battery both the store-backed Local and the 2PC cluster
// implementation must pass, across every engine:
//
//   - a sequential map-oracle property test mixing one-shot operations,
//     closure transactions (with user-abort rollback), batches, and scans;
//   - per-key linearizability of concurrent single-key operations;
//   - a multi-key transfer invariant (conserved total under concurrent
//     closure transactions, audited by atomic batch reads);
//   - batch semantics (per-op results, in-order visibility, atomicity);
//   - the scan-snapshot property test: concurrent pair-writers and
//     insert/delete togglers must never make a cursor observe a torn pair
//     or a half-inserted (phantom) pair;
//   - the closure buffer's rules (buffer.go): a Scan inside a closure clamps
//     its own buffered writes to the keyspace it names, a key is observed
//     once per attempt, Put-then-Delete and Delete of an absent key commit,
//     and a limited Scan fills its limit over buffered deletes;
//   - the coordination sections (coord.go): conditional-write semantics
//     plus a concurrent CAS lost-update race, lease grant / attach /
//     keep-alive / revoke / virtual-time expiry atomicity under a map
//     oracle and a concurrent pair audit, and the watch section — per-key
//     ordering, completeness against committed write counts, and fromRev
//     replay;
//   - the observability sections (obs.go): DB.Metrics sampled concurrently
//     with a write workload must stay race-free and monotone and agree
//     with ground truth at quiescence, and the tracer must emit exactly
//     one span per closure attempt with the contracted outcome sequence
//     (with WithRecovery also on a durable rig whose log writers are
//     fenced: the refused commit must be an error span, not a commit);
//   - with WithRecovery, the crash-injection section (recovery.go): a
//     clean-stop recovery diffed against a map oracle, then fuzzed crash
//     offsets under a concurrent transfer workload — post-recovery state
//     must equal the committed-prefix oracle with the transfer invariant
//     intact, revisions monotone, and leases preserved.
func RunDB(t *testing.T, name string, factory DBFactory, opts ...BatteryOption) {
	var bo batteryOptions
	for _, fn := range opts {
		fn(&bo)
	}
	t.Run(name+"/DBSequentialOracle", func(t *testing.T) { testDBSequentialOracle(t, factory) })
	t.Run(name+"/DBLinearizability", func(t *testing.T) { testDBLinearizability(t, factory) })
	t.Run(name+"/DBAtomicTransfer", func(t *testing.T) { testDBAtomicTransfer(t, factory) })
	t.Run(name+"/DBBatch", func(t *testing.T) { testDBBatch(t, factory) })
	t.Run(name+"/DBScanSnapshot", func(t *testing.T) { testDBScanSnapshot(t, factory) })
	t.Run(name+"/DBBufferClamp", func(t *testing.T) { testDBBufferClamp(t, factory) })
	t.Run(name+"/DBBufferRules", func(t *testing.T) { testDBBufferRules(t, factory) })
	t.Run(name+"/DBRevisionCAS", func(t *testing.T) { testDBRevisionCAS(t, factory) })
	t.Run(name+"/DBLeaseExpiry", func(t *testing.T) { testDBLeaseExpiry(t, factory) })
	t.Run(name+"/DBWatch", func(t *testing.T) { testDBWatch(t, factory) })
	t.Run(name+"/DBWatchCoalesce", func(t *testing.T) { testDBWatchCoalesce(t, factory) })
	t.Run(name+"/DBMetrics", func(t *testing.T) { testDBMetrics(t, factory) })
	t.Run(name+"/DBTrace", func(t *testing.T) { testDBTrace(t, factory) })
	t.Run(name+"/DBIndex", func(t *testing.T) { testDBIndex(t, factory) })
	if bo.recovery != nil {
		t.Run(name+"/DBTrace/Fenced", func(t *testing.T) { testDBTraceFenced(t, bo.recovery) })
		t.Run(name+"/DBRecovery", func(t *testing.T) { testDBRecovery(t, bo.recovery) })
	}
	if bo.repl != nil {
		t.Run(name+"/DBReplication", func(t *testing.T) { testDBReplication(t, bo.repl) })
	}
}

// BatteryOption extends RunDB with optional sections.
type BatteryOption func(*batteryOptions)

type batteryOptions struct {
	recovery RecoveryFactory
	repl     ReplFactory
}

// WithRecovery enables the DBRecovery crash-injection section against rigs
// built by rf (durable DBs over crash-injectable storage).
func WithRecovery(rf RecoveryFactory) BatteryOption {
	return func(o *batteryOptions) { o.recovery = rf }
}

// WithReplication enables the DBReplication section — live follower-read
// staleness audits and kill-the-primary failover — against replication
// groups built by rf.
func WithReplication(rf ReplFactory) BatteryOption {
	return func(o *batteryOptions) { o.repl = rf }
}

// testDBSequentialOracle runs a random single-client operation stream — a
// mix of one-shot ops, Update scripts (a quarter of which user-abort, whose
// writes must vanish), batches, and full scans — against a Go map oracle.
func testDBSequentialOracle(t *testing.T, factory DBFactory) {
	for _, seed := range []int64{1, 2, 3} {
		db, _, validate := factory(t)
		oracle := map[string][]byte{}
		rng := rand.New(rand.NewSource(seed))
		keyOf := func(i int) []byte { return []byte(fmt.Sprintf("key-%02d", i)) }
		const keys = 14

		randVal := func(n int) []byte {
			v := make([]byte, rng.Intn(n))
			rng.Read(v)
			return v
		}
		for op := 0; op < 140; op++ {
			switch rng.Intn(6) {
			case 0: // one-shot put
				k := keyOf(rng.Intn(keys))
				v := randVal(40)
				if err := db.Put(k, v); err != nil {
					t.Fatalf("seed %d op %d: Put: %v", seed, op, err)
				}
				oracle[string(k)] = v
			case 1: // one-shot get
				k := keyOf(rng.Intn(keys))
				got, err := db.Get(k)
				want, wok := oracle[string(k)]
				if wok != (err == nil) || (err != nil && !errors.Is(err, kv.ErrNotFound)) {
					t.Fatalf("seed %d op %d: Get(%s) err=%v, oracle present=%v", seed, op, k, err, wok)
				}
				if wok && !bytes.Equal(got, want) {
					t.Fatalf("seed %d op %d: Get(%s) = %x, want %x", seed, op, k, got, want)
				}
			case 2: // one-shot delete
				k := keyOf(rng.Intn(keys))
				err := db.Delete(k)
				_, wok := oracle[string(k)]
				if wok != (err == nil) || (err != nil && !errors.Is(err, kv.ErrNotFound)) {
					t.Fatalf("seed %d op %d: Delete(%s) err=%v, oracle present=%v", seed, op, k, err, wok)
				}
				delete(oracle, string(k))
			case 3: // closure transaction script, sometimes aborting
				steps := rng.Intn(5) + 1
				fail := rng.Intn(4) == 0
				type step struct {
					op  int // 0 put, 1 get, 2 delete
					key int
					val []byte
				}
				script := make([]step, steps)
				for i := range script {
					script[i] = step{op: rng.Intn(3), key: rng.Intn(keys)}
					if script[i].op == 0 {
						script[i].val = randVal(40)
					}
				}
				// Interpret over a shadow first: reads inside the closure are
				// checked against in-flight state whether or not it commits.
				shadow := map[string][]byte{}
				for k, v := range oracle {
					shadow[k] = v
				}
				wants := make([]struct {
					val []byte
					ok  bool
				}, steps)
				for i, st := range script {
					k := string(keyOf(st.key))
					switch st.op {
					case 0:
						shadow[k] = st.val
					case 1:
						wants[i].val, wants[i].ok = shadow[k]
					default:
						_, wants[i].ok = shadow[k]
						delete(shadow, k)
					}
				}
				err := db.Update(func(tx kv.Txn) error {
					for i, st := range script {
						k := keyOf(st.key)
						switch st.op {
						case 0:
							if err := tx.Put(k, st.val); err != nil {
								return err
							}
						case 1:
							got, err := tx.Get(k)
							if wants[i].ok != (err == nil) || (err != nil && !errors.Is(err, kv.ErrNotFound)) {
								return fmt.Errorf("step %d: Get err=%v, want present=%v", i, err, wants[i].ok)
							}
							if wants[i].ok && !bytes.Equal(got, wants[i].val) {
								return fmt.Errorf("step %d: Get = %x, want %x", i, got, wants[i].val)
							}
						default:
							err := tx.Delete(k)
							if wants[i].ok != (err == nil) || (err != nil && !errors.Is(err, kv.ErrNotFound)) {
								return fmt.Errorf("step %d: Delete err=%v, want present=%v", i, err, wants[i].ok)
							}
						}
					}
					if fail {
						return errUserAbort
					}
					return nil
				})
				if fail {
					if err != errUserAbort {
						t.Fatalf("seed %d op %d: err = %v, want oracle abort", seed, op, err)
					}
					continue // rollback: oracle unchanged
				}
				if err != nil {
					t.Fatalf("seed %d op %d: Update: %v", seed, op, err)
				}
				oracle = shadow
			case 4: // batch of independent ops
				n := rng.Intn(4) + 2
				ops := make([]kv.Op, n)
				for i := range ops {
					k := keyOf(rng.Intn(keys))
					switch rng.Intn(3) {
					case 0:
						ops[i] = kv.Op{Kind: kv.OpPut, Key: k, Value: randVal(24)}
					case 1:
						ops[i] = kv.Op{Kind: kv.OpGet, Key: k}
					default:
						ops[i] = kv.Op{Kind: kv.OpDelete, Key: k}
					}
				}
				results, err := db.Batch(ops)
				if err != nil {
					t.Fatalf("seed %d op %d: Batch: %v", seed, op, err)
				}
				for i, bop := range ops {
					k := string(bop.Key)
					want, wok := oracle[k]
					switch bop.Kind {
					case kv.OpPut:
						oracle[k] = bop.Value
					case kv.OpGet:
						if wok != (results[i].Err == nil) ||
							(wok && !bytes.Equal(results[i].Value, want)) {
							t.Fatalf("seed %d op %d batch %d: Get(%s) = %x,%v want %x,%v",
								seed, op, i, k, results[i].Value, results[i].Err, want, wok)
						}
					default:
						if wok != (results[i].Err == nil) {
							t.Fatalf("seed %d op %d batch %d: Delete(%s) err=%v, want present=%v",
								seed, op, i, k, results[i].Err, wok)
						}
						delete(oracle, k)
					}
				}
			default: // full ordered scan
				it := db.Scan(nil, nil, 0)
				var prev []byte
				seen := 0
				for it.Next() {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						t.Fatalf("seed %d op %d: scan keys out of order: %q then %q", seed, op, prev, it.Key())
					}
					prev = append(prev[:0], it.Key()...)
					want, wok := oracle[string(it.Key())]
					if !wok || !bytes.Equal(it.Value(), want) {
						t.Fatalf("seed %d op %d: scan %s = %x, oracle %x,%v",
							seed, op, it.Key(), it.Value(), want, wok)
					}
					seen++
				}
				if err := it.Err(); err != nil {
					t.Fatalf("seed %d op %d: scan: %v", seed, op, err)
				}
				if seen != len(oracle) {
					t.Fatalf("seed %d op %d: scan saw %d entries, oracle %d", seed, op, seen, len(oracle))
				}
			}
		}
		// Final state must match the oracle exactly.
		for i := 0; i < keys; i++ {
			got, err := db.Get(keyOf(i))
			want, wok := oracle[string(keyOf(i))]
			if wok != (err == nil) || (wok && !bytes.Equal(got, want)) {
				t.Fatalf("seed %d final key %d: got %x,%v want %x,%v", seed, i, got, err, want, wok)
			}
		}
		if err := validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// testDBLinearizability drives concurrent one-shot operations on a small
// key set and checks each key's history with the Wing & Gong register
// checker. Absent keys read as value 0.
func testDBLinearizability(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	const workers = 4
	const opsPerWorker = 12
	keys := [][]byte{[]byte("alpha"), []byte("beta-longer-key"), []byte("g")}

	var clk atomic.Int64
	var mu sync.Mutex
	histories := make([][]linearize.Op, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		id := uint64(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 100))
			for i := 0; i < opsPerWorker; i++ {
				ki := rng.Intn(len(keys))
				isWrite := (uint64(i)+id)%2 == 0
				writeVal := (id+1)*1000 + uint64(i) // globally unique, nonzero
				var readVal uint64
				start := clk.Add(1)
				var err error
				if isWrite {
					var buf [8]byte
					binary.LittleEndian.PutUint64(buf[:], writeVal)
					err = db.Put(keys[ki], buf[:])
				} else {
					var v []byte
					v, err = db.Get(keys[ki])
					if errors.Is(err, kv.ErrNotFound) {
						readVal, err = 0, nil
					} else if err == nil {
						readVal = binary.LittleEndian.Uint64(v)
					}
				}
				end := clk.Add(1)
				if err != nil {
					t.Errorf("op: %v", err)
					return
				}
				op := linearize.Op{Start: start, End: end, IsWrite: isWrite, Val: writeVal}
				if !isWrite {
					op.Val = readVal
				}
				mu.Lock()
				histories[ki] = append(histories[ki], op)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for ki, h := range histories {
		ok, err := linearize.CheckRegister(h, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("key %q: history not linearizable:\n%v", keys[ki], h)
		}
	}
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

// testDBAtomicTransfer moves units between per-key balances with closure
// transactions while auditors take atomic batch reads of every account: a
// torn commit (cross-shard or cross-System, depending on the backend)
// shows up as a non-conserved total.
func testDBAtomicTransfer(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	const accounts = 8
	const initial = 1000
	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("acct-%d", i)) }
	enc := func(v uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return b[:]
	}
	dec := func(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

	setup := make([]kv.Op, accounts)
	gets := make([]kv.Op, accounts)
	for i := 0; i < accounts; i++ {
		setup[i] = kv.Op{Kind: kv.OpPut, Key: keyOf(i), Value: enc(initial)}
		gets[i] = kv.Op{Kind: kv.OpGet, Key: keyOf(i)}
	}
	if _, err := db.Batch(setup); err != nil {
		t.Fatal(err)
	}

	audit := func() error {
		results, err := db.Batch(gets)
		if err != nil {
			return err
		}
		var total uint64
		for i, r := range results {
			if r.Err != nil {
				return fmt.Errorf("account %d: %v", i, r.Err)
			}
			total += dec(r.Value)
		}
		if total != accounts*initial {
			return fmt.Errorf("total %d, want %d (money not conserved)", total, accounts*initial)
		}
		return nil
	}

	stop := make(chan struct{})
	var auditWg sync.WaitGroup
	auditWg.Add(1)
	go func() {
		defer auditWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := audit(); err != nil {
				t.Errorf("audit: %v", err)
				return
			}
			// An atomic batch read pins every account at once (on the
			// cluster: exclusive read intents across all Systems), so a hot
			// audit loop would starve the transfers it audits. Yield between
			// audits; plenty still run within the workload's lifetime.
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const workers, transfers = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w) + 7))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					continue
				}
				amt := uint64(rng.Intn(10))
				err := db.Update(func(tx kv.Txn) error {
					fv, err := tx.Get(keyOf(from))
					if err != nil {
						return err
					}
					f := dec(fv)
					if f < amt {
						return nil
					}
					if err := tx.Put(keyOf(from), enc(f-amt)); err != nil {
						return err
					}
					tv, err := tx.Get(keyOf(to))
					if err != nil {
						return err
					}
					return tx.Put(keyOf(to), enc(dec(tv)+amt))
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	auditWg.Wait()

	if err := audit(); err != nil {
		t.Fatal(err)
	}
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

// testDBBatch pins the batch contract: per-op results, in-batch-order
// visibility (a Get after a Put of the same key sees the Put), ErrNotFound
// as a per-op result rather than a batch failure, and result ordering.
func testDBBatch(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)

	if res, err := db.Batch(nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch = %v, %v", res, err)
	}

	results, err := db.Batch([]kv.Op{
		{Kind: kv.OpGet, Key: []byte("missing")},
		{Kind: kv.OpPut, Key: []byte("a"), Value: []byte("1")},
		{Kind: kv.OpGet, Key: []byte("a")},
		{Kind: kv.OpDelete, Key: []byte("a")},
		{Kind: kv.OpGet, Key: []byte("a")},
		{Kind: kv.OpDelete, Key: []byte("never")},
		{Kind: kv.OpPut, Key: []byte("b"), Value: []byte("2")},
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if !errors.Is(results[0].Err, kv.ErrNotFound) {
		t.Fatalf("get missing: %+v", results[0])
	}
	if results[2].Err != nil || !bytes.Equal(results[2].Value, []byte("1")) {
		t.Fatalf("get-after-put saw %+v", results[2])
	}
	if results[3].Err != nil {
		t.Fatalf("delete-after-put: %+v", results[3])
	}
	if !errors.Is(results[4].Err, kv.ErrNotFound) {
		t.Fatalf("get-after-delete saw %+v", results[4])
	}
	if !errors.Is(results[5].Err, kv.ErrNotFound) {
		t.Fatalf("delete missing: %+v", results[5])
	}
	if _, err := db.Get([]byte("a")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("key a survived its in-batch delete: %v", err)
	}
	if v, err := db.Get([]byte("b")); err != nil || !bytes.Equal(v, []byte("2")) {
		t.Fatalf("key b = %x, %v", v, err)
	}

	// A wide batch of puts lands completely, spread over shards/Systems.
	var wide []kv.Op
	for i := 0; i < 24; i++ {
		wide = append(wide, kv.Op{Kind: kv.OpPut,
			Key:   []byte(fmt.Sprintf("wide-%02d", i)),
			Value: []byte(fmt.Sprintf("val-%d", i))})
	}
	if _, err := db.Batch(wide); err != nil {
		t.Fatal(err)
	}
	it := db.Scan([]byte("wide-"), []byte("wide-~"), 0)
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil || n != 24 {
		t.Fatalf("wide batch: scan found %d entries, err %v", n, err)
	}
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

// testDBScanSnapshot is the scan-consistency property test: writers keep
// pairs of keys equal (incrementing both in one transaction) while a
// toggler atomically inserts and deletes marker pairs; concurrent cursors
// must observe strictly ascending keys, never a torn pair (unequal
// counters), and never a phantom (exactly one half of a marker pair).
func testDBScanSnapshot(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	const pairs = 8
	enc := func(v uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return b[:]
	}
	dec := func(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }
	keyA := func(i int) []byte { return []byte(fmt.Sprintf("pair-%02d-a", i)) }
	keyB := func(i int) []byte { return []byte(fmt.Sprintf("pair-%02d-b", i)) }

	var setup []kv.Op
	for i := 0; i < pairs; i++ {
		setup = append(setup,
			kv.Op{Kind: kv.OpPut, Key: keyA(i), Value: enc(0)},
			kv.Op{Kind: kv.OpPut, Key: keyB(i), Value: enc(0)})
	}
	if _, err := db.Batch(setup); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		rng := rand.New(rand.NewSource(int64(w) + 31))
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := rng.Intn(pairs)
				err := db.Update(func(tx kv.Txn) error {
					va, err := tx.Get(keyA(p))
					if err != nil {
						return err
					}
					vb, err := tx.Get(keyB(p))
					if err != nil {
						return err
					}
					if dec(va) != dec(vb) {
						// Optimistic backends only guarantee mutually
						// consistent reads at commit; an observed tear means
						// validation would fail, so request the retry — the
						// kv contract's ErrConflict escape hatch.
						return kv.ErrConflict
					}
					if err := tx.Put(keyA(p), enc(dec(va)+1)); err != nil {
						return err
					}
					return tx.Put(keyB(p), enc(dec(vb)+1))
				})
				if err != nil {
					t.Errorf("pair writer: %v", err)
					return
				}
			}
		}()
	}
	// Toggler: marker pairs appear and disappear atomically — any cursor
	// catching exactly one half saw a phantom.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mA := []byte(fmt.Sprintf("marker-%02d-a", i%4))
			mB := []byte(fmt.Sprintf("marker-%02d-b", i%4))
			err := db.Update(func(tx kv.Txn) error {
				if err := tx.Put(mA, enc(uint64(i))); err != nil {
					return err
				}
				return tx.Put(mB, enc(uint64(i)))
			})
			if err == nil {
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

	check := func(entries []kv.Entry) error {
		byKey := map[string]uint64{}
		var prev []byte
		for _, e := range entries {
			if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
				return fmt.Errorf("keys out of order: %q then %q", prev, e.Key)
			}
			prev = e.Key
			byKey[string(e.Key)] = dec(e.Value)
		}
		for i := 0; i < pairs; i++ {
			a, aok := byKey[string(keyA(i))]
			b, bok := byKey[string(keyB(i))]
			// Bounded cursors can cut between the halves of a pair, so only
			// pairs fully inside the prefix are comparable.
			if aok && bok && a != b {
				return fmt.Errorf("torn pair %d: %d != %d", i, a, b)
			}
		}
		for i := 0; i < 4; i++ {
			a, aok := byKey[fmt.Sprintf("marker-%02d-a", i)]
			b, bok := byKey[fmt.Sprintf("marker-%02d-b", i)]
			if aok != bok {
				return fmt.Errorf("phantom marker %d: a=%v b=%v", i, aok, bok)
			}
			if aok && a != b {
				return fmt.Errorf("torn marker %d: %d != %d", i, a, b)
			}
		}
		return nil
	}

	const scans = 30
	var scanErr error
	for s := 0; s < scans && scanErr == nil; s++ {
		limit := 0
		if s%3 == 1 {
			limit = pairs // bounded cursor: a consistent prefix
		}
		it := db.Scan(nil, []byte("q"), limit)
		var entries []kv.Entry
		for it.Next() {
			entries = append(entries,
				kv.Entry{Key: append([]byte(nil), it.Key()...), Value: append([]byte(nil), it.Value()...)})
		}
		if err := it.Err(); err != nil {
			scanErr = err
			break
		}
		if limit > 0 && len(entries) > limit {
			scanErr = fmt.Errorf("limit %d scan yielded %d entries", limit, len(entries))
			break
		}
		scanErr = check(entries)
	}
	close(stop)
	writers.Wait()
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	// Full scans on a full-pair snapshot must contain both halves of every
	// pair once the writers quiesce.
	it := db.Scan([]byte("pair-"), []byte("pair-~"), 0)
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil || n != 2*pairs {
		t.Fatalf("final pair scan: %d entries, err %v", n, err)
	}
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}
