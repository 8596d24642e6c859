package dbtest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rhtm/kv"
	"rhtm/repl"
)

// The replication conformance section. A ReplRig wraps one durable primary
// DB inside a repl.Group with a hook to grow same-shaped replicas, plus the
// same independent committed-prefix oracle the recovery section uses — so
// a promotion's outcome is diffed against a replayer that shares only the
// frame codec with the code under test. The section checks, live:
//
//   - follower reads never observe a revision above the watermark they
//     advertise, and a floor taken from a completed primary write is
//     honored (the returned revision is at least the floor) or refused
//     with ErrTooStale — never silently violated;
//   - after a drain, follower state equals primary state exactly;
//   - killing the primary mid-transfer-workload and promoting a replica
//     loses zero acknowledged writes, keeps the transfer invariant intact
//     across the promotion (all-or-nothing for in-flight cross-System
//     transactions), agrees with the independent oracle, rejects the
//     zombie primary's post-fence commits, and leaves the surviving
//     replica following the new primary.

// ReplRig is one replication group under test.
type ReplRig struct {
	// DB is the running durable primary; Group the replication group
	// wrapping it.
	DB    kv.DB
	Group *repl.Group
	// AddReplica grows the group with a fresh same-shaped replica and
	// returns it with its post-quiescence validate hook.
	AddReplica func() (*repl.Follower, func() error, error)
	// OracleNow decodes the primary's storage with an independent
	// committed-prefix replayer into a plain map (reserved keys included).
	OracleNow func() (map[string][]byte, error)
}

// ReplFactory builds a fresh rig.
type ReplFactory func(t *testing.T) *ReplRig

func testDBReplication(t *testing.T, rf ReplFactory) {
	t.Run("FollowerReads", func(t *testing.T) { testFollowerReads(t, rf) })
	t.Run("Failover", func(t *testing.T) { testFailover(t, rf) })
}

// testFollowerReads audits the staleness contract under live traffic, then
// diffs the drained replica against the primary exactly.
func testFollowerReads(t *testing.T, rf ReplFactory) {
	rig := rf(t)
	defer rig.Group.Close()
	f, validate, err := rig.AddReplica()
	if err != nil {
		t.Fatal(err)
	}

	const keys = 16
	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("rk-%02d", i)) }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes atomic.Uint64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keyOf(rng.Intn(keys))
				var err error
				if rng.Intn(8) == 0 {
					if err = rig.DB.Delete(k); errors.Is(err, kv.ErrNotFound) {
						err = nil // the other writer got there first
					}
				} else {
					err = rig.DB.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i)))
				}
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				writes.Add(1)
			}
		}(w)
	}

	// The auditor races the writers: every successful ReadAt with a floor
	// taken from a completed primary write must return rev in [floor,
	// watermark] — never a future revision, never a pre-floor value.
	wg.Add(1)
	var audits, stales uint64
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := keyOf(rng.Intn(keys))
			_, floor, err := rig.DB.GetRev(k)
			if errors.Is(err, kv.ErrNotFound) {
				continue
			}
			if err != nil {
				t.Errorf("auditor GetRev: %v", err)
				return
			}
			val, rev, wm, err := f.ReadAt(k, floor)
			audits++
			switch {
			case errors.Is(err, kv.ErrTooStale):
				stales++
			case errors.Is(err, kv.ErrNotFound):
				if wm < floor {
					t.Errorf("ReadAt(%s, %d): ErrNotFound with watermark %d below floor", k, floor, wm)
					return
				}
			case err != nil:
				t.Errorf("ReadAt(%s, %d): %v", k, floor, err)
				return
			default:
				if rev > wm {
					t.Errorf("ReadAt(%s): rev %d above watermark %d", k, rev, wm)
					return
				}
				if rev < floor {
					t.Errorf("ReadAt(%s): rev %d below honored floor %d (value %q)", k, rev, floor, val)
					return
				}
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if writes.Load() == 0 || audits == 0 {
		t.Fatalf("workload did not run: %d writes, %d audits", writes.Load(), audits)
	}
	t.Logf("%d writes, %d audits (%d provably stale refusals)", writes.Load(), audits, stales)

	// Drained, the replica is the primary: every key identical in value
	// and revision, and the deterministic staleness refusal holds.
	if err := f.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		k := keyOf(i)
		pv, prev, perr := rig.DB.GetRev(k)
		fv, frev, _, ferr := f.ReadAt(k, 0)
		if errors.Is(perr, kv.ErrNotFound) {
			if !errors.Is(ferr, kv.ErrNotFound) {
				t.Fatalf("%s: absent on primary, %v on follower", k, ferr)
			}
			continue
		}
		if perr != nil || ferr != nil {
			t.Fatalf("%s: primary %v, follower %v", k, perr, ferr)
		}
		if prev != frev || !bytes.Equal(pv, fv) {
			t.Fatalf("%s: primary (%x, rev %d) != follower (%x, rev %d)", k, pv, prev, fv, frev)
		}
	}
	if _, _, _, err := f.ReadAt(keyOf(0), kv.Revision(1)<<40); !errors.Is(err, kv.ErrTooStale) {
		t.Fatalf("ReadAt(future floor): %v, want ErrTooStale", err)
	}
	snap := rig.Group.Metrics().Flatten()
	if snap["repl.lag_frames"] != 0 {
		t.Fatalf("drained replica lags %d frames", snap["repl.lag_frames"])
	}
	if validate != nil {
		if err := validate(); err != nil {
			t.Fatalf("replica validate: %v", err)
		}
	}
}

// testFailover kills the primary under a concurrent transfer workload,
// promotes a replica, and audits the committed state three ways: value
// conservation (all-or-nothing transfers), the independent committed-prefix
// oracle, and the surviving replica's view of the new primary.
func testFailover(t *testing.T, rf ReplFactory) {
	rig := rf(t)
	defer rig.Group.Close()
	fA, valA, err := rig.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	fB, valB, err := rig.AddReplica()
	if err != nil {
		t.Fatal(err)
	}

	const accounts = 8
	const unit = 100
	acct := func(i int) []byte { return []byte(fmt.Sprintf("acct-%d", i)) }
	for i := 0; i < accounts; i++ {
		if err := rig.DB.Put(acct(i), []byte{unit}); err != nil {
			t.Fatal(err)
		}
	}

	var transfers atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					continue
				}
				err := rig.DB.Update(func(tx kv.Txn) error {
					a, err := tx.Get(acct(from))
					if err != nil {
						return err
					}
					b, err := tx.Get(acct(to))
					if err != nil {
						return err
					}
					if a[0] == 0 {
						return nil
					}
					if err := tx.Put(acct(from), []byte{a[0] - 1}); err != nil {
						return err
					}
					return tx.Put(acct(to), []byte{b[0] + 1})
				})
				if errors.Is(err, kv.ErrFenced) {
					return // the kill landed mid-workload: this primary is done
				}
				if err != nil {
					t.Errorf("transfer worker %d: %v", w, err)
					return
				}
				transfers.Add(1)
			}
		}(w)
	}

	// Kill mid-workload, once the transfer traffic is provably in flight.
	deadline := time.Now().Add(30 * time.Second)
	for transfers.Load() < 30 && !t.Failed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rig.Group.Kill()
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := rig.DB.Put([]byte("zombie"), []byte("x")); !errors.Is(err, kv.ErrFenced) {
		t.Fatalf("zombie primary Put: %v, want ErrFenced", err)
	}

	newDB, promoted, err := rig.Group.Promote()
	if err != nil {
		t.Fatal(err)
	}
	survivor, survivorValidate := fA, valA
	promotedValidate := valB
	if promoted == fA {
		survivor, survivorValidate = fB, valB
		promotedValidate = valA
	}

	// All-or-nothing across the promotion: an in-flight transfer either
	// moved the unit on both accounts or on neither.
	total := 0
	for i := 0; i < accounts; i++ {
		v, err := newDB.Get(acct(i))
		if err != nil {
			t.Fatalf("promoted Get(acct-%d): %v", i, err)
		}
		total += int(v[0])
	}
	if total != accounts*unit {
		t.Fatalf("transfer invariant broken by failover: total %d, want %d (after %d transfers)",
			total, accounts*unit, transfers.Load())
	}
	// The independent committed-prefix replayer agrees with the promoted DB.
	oracle, err := rig.OracleNow()
	if err != nil {
		t.Fatal(err)
	}
	if err := diffRecovered(newDB, oracle); err != nil {
		t.Fatalf("promoted state vs oracle: %v", err)
	}
	if _, err := newDB.Get([]byte("zombie")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("zombie write survived the fence: %v", err)
	}

	// The new primary serves; the survivor follows it at a fresh watermark.
	if err := newDB.Put([]byte("post-promo"), []byte("ok")); err != nil {
		t.Fatalf("promoted primary Put: %v", err)
	}
	if err := survivor.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if v, _, _, err := survivor.ReadAt([]byte("post-promo"), 0); err != nil || string(v) != "ok" {
		t.Fatalf("survivor after failover: %q, %v", v, err)
	}

	m := rig.Group.Membership()
	if m.Epoch != 2 || m.Primary != promoted.Name() {
		t.Fatalf("membership after promotion: %+v", m)
	}
	snap := rig.Group.Metrics().Flatten()
	if snap["repl.promotions"] != 1 {
		t.Fatalf("repl.promotions = %d, want 1", snap["repl.promotions"])
	}
	if snap["repl.fenced_frames"] == 0 {
		t.Fatal("repl.fenced_frames = 0: the zombie rejection went uncounted")
	}
	for _, v := range []struct {
		name string
		fn   func() error
	}{{"promoted", promotedValidate}, {"survivor", survivorValidate}} {
		if v.fn != nil {
			if err := v.fn(); err != nil {
				t.Fatalf("%s validate: %v", v.name, err)
			}
		}
	}
}
