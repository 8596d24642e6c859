package dbtest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rhtm/kv"
)

// The coordination sections of the battery: conditional writes, leases, and
// watch streams — the etcd-grade surface both backends must implement with
// identical semantics.

func enc64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func dec64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// testDBRevisionCAS pins conditional-write semantics sequentially, then
// races CAS increments from several workers: with compare-and-swap doing
// the locking, every successful PutIf is one lost-update-free increment, so
// the final counter must equal the number of successes — which the workers
// drive to an exact total by retrying mismatches.
func testDBRevisionCAS(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	key := []byte("cas-key")

	// Create-only semantics: rev 0 means "must be absent".
	if err := db.PutIf(key, []byte("v1"), 7); !errors.Is(err, kv.ErrRevisionMismatch) {
		t.Fatalf("PutIf(nonzero) on absent key: %v, want ErrRevisionMismatch", err)
	}
	if err := db.PutIf(key, []byte("v1"), 0); err != nil {
		t.Fatalf("create PutIf: %v", err)
	}
	if err := db.PutIf(key, []byte("v2"), 0); !errors.Is(err, kv.ErrRevisionMismatch) {
		t.Fatalf("create PutIf on present key: %v, want ErrRevisionMismatch", err)
	}
	v, rev1, err := db.GetRev(key)
	if err != nil || !bytes.Equal(v, []byte("v1")) || rev1 == 0 {
		t.Fatalf("GetRev = (%q, %d, %v)", v, rev1, err)
	}
	// Guarded overwrite advances the revision; the stale guard then fails.
	if err := db.PutIf(key, []byte("v2"), rev1); err != nil {
		t.Fatalf("guarded PutIf: %v", err)
	}
	_, rev2, err := db.GetRev(key)
	if err != nil || rev2 <= rev1 {
		t.Fatalf("rev after CAS = %d (was %d), err %v", rev2, rev1, err)
	}
	if err := db.PutIf(key, []byte("v3"), rev1); !errors.Is(err, kv.ErrRevisionMismatch) {
		t.Fatalf("stale PutIf: %v, want ErrRevisionMismatch", err)
	}
	// Txn.Revision sees the same version the one-shot surface reports.
	if err := db.Update(func(tx kv.Txn) error {
		r, err := tx.Revision(key)
		if err != nil {
			return err
		}
		if r != rev2 {
			return fmt.Errorf("tx.Revision = %d, want %d", r, rev2)
		}
		if r, err = tx.Revision([]byte("never-written")); err != nil || r != 0 {
			return fmt.Errorf("tx.Revision(absent) = %d, %v", r, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Conditional delete.
	if err := db.DeleteIf(key, rev1); !errors.Is(err, kv.ErrRevisionMismatch) {
		t.Fatalf("stale DeleteIf: %v, want ErrRevisionMismatch", err)
	}
	if err := db.DeleteIf(key, rev2); err != nil {
		t.Fatalf("DeleteIf: %v", err)
	}
	if err := db.DeleteIf(key, rev2); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("DeleteIf on absent key: %v, want ErrNotFound", err)
	}
	// Reinsertion never reuses an old revision (no ABA across delete).
	if err := db.PutIf(key, []byte("back"), 0); err != nil {
		t.Fatal(err)
	}
	if _, rev3, _ := db.GetRev(key); rev3 <= rev2 {
		t.Fatalf("reinserted rev %d not past deleted rev %d", rev3, rev2)
	}

	// The CAS race: every increment must land exactly once.
	const workers, increments = 4, 12
	counter := []byte("cas-counter")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				for {
					cur, rev, err := db.GetRev(counter)
					var next uint64
					switch {
					case errors.Is(err, kv.ErrNotFound):
						rev, next = 0, 1
					case err == nil:
						next = dec64(cur) + 1
					default:
						t.Errorf("GetRev: %v", err)
						return
					}
					err = db.PutIf(counter, enc64(next), rev)
					if err == nil {
						break
					}
					if !errors.Is(err, kv.ErrRevisionMismatch) {
						t.Errorf("PutIf: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	final, err := db.Get(counter)
	if err != nil || dec64(final) != workers*increments {
		t.Fatalf("CAS counter = %v (err %v), want %d", final, err, workers*increments)
	}
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

// testDBLeaseExpiry drives grants, attachments, keep-alives, revokes and
// virtual-time expiry against a map oracle, then audits expiry atomicity
// under concurrency: a lease's keys must vanish together, detached keys
// must survive, and a kept-alive lease must outlive the pump.
func testDBLeaseExpiry(t *testing.T, factory DBFactory) {
	db, clock, validate := factory(t)

	expire := func() int {
		n, err := db.ExpireLeases()
		if err != nil {
			t.Fatalf("ExpireLeases: %v", err)
		}
		return n
	}
	mustPut := func(key string, lease kv.LeaseID) {
		var err error
		if lease == 0 {
			err = db.Put([]byte(key), []byte("v-"+key))
		} else {
			err = db.Put([]byte(key), []byte("v-"+key), kv.WithLease(lease))
		}
		if err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
	}
	present := func(key string) bool {
		_, err := db.Get([]byte(key))
		if err != nil && !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("Get %s: %v", key, err)
		}
		return err == nil
	}

	// Dead-lease operations fail cleanly.
	if err := db.Put([]byte("x"), []byte("v"), kv.WithLease(999)); !errors.Is(err, kv.ErrLeaseNotFound) {
		t.Fatalf("attach to unknown lease: %v, want ErrLeaseNotFound", err)
	}
	if err := db.KeepAlive(999); !errors.Is(err, kv.ErrLeaseNotFound) {
		t.Fatalf("KeepAlive unknown lease: %v", err)
	}
	if err := db.Revoke(999); !errors.Is(err, kv.ErrLeaseNotFound) {
		t.Fatalf("Revoke unknown lease: %v", err)
	}

	short, err := db.Grant(10)
	if err != nil {
		t.Fatal(err)
	}
	long, err := db.Grant(100)
	if err != nil {
		t.Fatal(err)
	}
	mustPut("s1", short)
	mustPut("s2", short)
	mustPut("s3", short)
	mustPut("l1", long)
	mustPut("plain", 0)
	mustPut("s3", 0) // overwrite without the lease: detaches

	if n := expire(); n != 0 {
		t.Fatalf("expired %d leases before the deadline", n)
	}
	clock.Advance(11)
	if n := expire(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	for key, want := range map[string]bool{
		"s1": false, "s2": false, // attached: gone with the lease
		"s3": true, "l1": true, "plain": true, // detached / other lease / no lease
	} {
		if present(key) != want {
			t.Fatalf("after expiry, present(%s) = %v, want %v", key, !want, want)
		}
	}
	// The dead lease is unusable; the survivor still works.
	if err := db.KeepAlive(short); !errors.Is(err, kv.ErrLeaseNotFound) {
		t.Fatalf("KeepAlive expired lease: %v", err)
	}

	// KeepAlive extends: advance close to the deadline, refresh, cross the
	// old deadline — the lease must survive; let it lapse — it must go.
	clock.Advance(80) // t ≈ 92, long deadline ≈ 101
	if err := db.KeepAlive(long); err != nil {
		t.Fatal(err)
	}
	clock.Advance(60) // past the original deadline, inside the refreshed one
	if n := expire(); n != 0 {
		t.Fatalf("refreshed lease expired (%d)", n)
	}
	if !present("l1") {
		t.Fatal("kept-alive lease lost its key")
	}
	clock.Advance(100)
	if n := expire(); n != 1 {
		t.Fatalf("lapsed lease not expired (%d)", n)
	}
	if present("l1") {
		t.Fatal("lapsed lease kept its key")
	}

	// Revoke deletes the lease's keys atomically, honoring detachment.
	lease, err := db.Grant(1000)
	if err != nil {
		t.Fatal(err)
	}
	mustPut("r1", lease)
	mustPut("r2", lease)
	mustPut("r2", 0)
	if err := db.Revoke(lease); err != nil {
		t.Fatal(err)
	}
	if present("r1") || !present("r2") {
		t.Fatalf("revoke: r1 present=%v r2 present=%v, want false/true", present("r1"), present("r2"))
	}

	// Concurrency: pairs attached to one lease expire atomically — an
	// auditor's snapshot scans must never see half a pair.
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
			it := db.Scan([]byte("pair-"), []byte("pair-~"), 0)
			seen := map[string]bool{}
			for it.Next() {
				seen[string(it.Key())] = true
			}
			if err := it.Err(); err != nil {
				t.Errorf("audit scan: %v", err)
				return
			}
			for k := range seen {
				var other string
				if k[len(k)-1] == 'a' {
					other = k[:len(k)-1] + "b"
				} else {
					other = k[:len(k)-1] + "a"
				}
				if !seen[other] {
					t.Errorf("torn lease expiry: %s present without %s", k, other)
					return
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for round := 0; round < 8 && !t.Failed(); round++ {
		l, err := db.Grant(5)
		if err != nil {
			t.Fatal(err)
		}
		a := fmt.Sprintf("pair-%02d-a", round)
		b := fmt.Sprintf("pair-%02d-b", round)
		// Attach both halves in one transaction so they appear together.
		err = db.Update(func(tx kv.Txn) error {
			if err := tx.Put([]byte(a), []byte("1"), kv.WithLease(l)); err != nil {
				return err
			}
			return tx.Put([]byte(b), []byte("1"), kv.WithLease(l))
		})
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(6)
		expire()
	}
	close(stop)
	auditWg.Wait()
	if t.Failed() {
		return
	}
	it := db.Scan([]byte("pair-"), []byte("pair-~"), 0)
	for it.Next() {
		t.Fatalf("lease-held pair key %q survived expiry", it.Key())
	}
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

// collectEvents drains ch until want events arrive (or the timeout), then
// returns them.
func collectEvents(t *testing.T, ch <-chan kv.Event, want int, timeout time.Duration) []kv.Event {
	t.Helper()
	var out []kv.Event
	deadline := time.After(timeout)
	for len(out) < want {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("watch channel closed after %d/%d events", len(out), want)
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out with %d/%d events: %+v", len(out), want, out)
		}
	}
	return out
}

// testDBWatch checks the watch contract: prefix filtering, per-key
// ordering, delivery of exactly the committed writes (at-least-once with
// no silent drops — the buffers here are sized so no EventLost fires), and
// fromRev replay of retained history.
func testDBWatch(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ch, err := db.Watch(ctx, []byte("w-"), 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}

	// Sequential semantics: four matching events, one filtered out.
	steps := []func() error{
		func() error { return db.Put([]byte("w-a"), []byte("1")) },
		func() error { return db.Put([]byte("w-b"), []byte("2")) },
		func() error { return db.Put([]byte("w-a"), []byte("3")) },
		func() error { return db.Delete([]byte("w-b")) },
		func() error { return db.Put([]byte("other"), []byte("x")) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	events := collectEvents(t, ch, 4, 10*time.Second)
	perKey := map[string][]kv.Event{}
	for _, ev := range events {
		if ev.Kind == kv.EventLost {
			t.Fatalf("unexpected EventLost in %+v", events)
		}
		if !bytes.HasPrefix(ev.Key, []byte("w-")) {
			t.Fatalf("event outside the watched prefix: %+v", ev)
		}
		perKey[string(ev.Key)] = append(perKey[string(ev.Key)], ev)
	}
	wantA := perKey["w-a"]
	if len(wantA) != 2 || wantA[0].Kind != kv.EventPut || string(wantA[0].Value) != "1" ||
		wantA[1].Kind != kv.EventPut || string(wantA[1].Value) != "3" || wantA[1].Rev <= wantA[0].Rev {
		t.Fatalf("w-a events: %+v", wantA)
	}
	wantB := perKey["w-b"]
	if len(wantB) != 2 || wantB[0].Kind != kv.EventPut || wantB[1].Kind != kv.EventDelete ||
		wantB[1].Rev <= wantB[0].Rev {
		t.Fatalf("w-b events: %+v", wantB)
	}

	// fromRev replay: a fresh watcher asking for history from revision 1
	// receives the same four events from the retained log.
	rctx, rcancel := context.WithCancel(context.Background())
	rch, err := db.Watch(rctx, []byte("w-"), 1)
	if err != nil {
		t.Fatal(err)
	}
	replayed := collectEvents(t, rch, 4, 10*time.Second)
	for i, ev := range replayed {
		if ev.Kind == kv.EventLost {
			t.Fatalf("replay reported loss on an intact log: %+v", replayed)
		}
		if i > 0 && bytes.Equal(ev.Key, replayed[i-1].Key) && ev.Rev <= replayed[i-1].Rev {
			t.Fatalf("replay out of order: %+v", replayed)
		}
	}
	rcancel()

	// Concurrent completeness: writers hammer a small key set (single-key
	// puts, multi-key closure transactions, batches); the watcher must see
	// exactly one event per committed write, per-key revisions strictly
	// ascending.
	const writers, opsPerWriter, watchKeys = 3, 20, 5
	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("w-live-%d", i)) }
	var committed [watchKeys]atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				k1 := (w + i) % watchKeys
				switch i % 3 {
				case 0: // one-shot put
					if err := db.Put(keyOf(k1), enc64(uint64(w<<16|i))); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					committed[k1].Add(1)
				case 1: // multi-key closure transaction
					k2 := (k1 + 1) % watchKeys
					err := db.Update(func(tx kv.Txn) error {
						if err := tx.Put(keyOf(k1), enc64(uint64(i))); err != nil {
							return err
						}
						return tx.Put(keyOf(k2), enc64(uint64(i)))
					})
					if err != nil {
						t.Errorf("update: %v", err)
						return
					}
					committed[k1].Add(1)
					committed[k2].Add(1)
				default: // batch
					if _, err := db.Batch([]kv.Op{
						{Kind: kv.OpPut, Key: keyOf(k1), Value: enc64(uint64(i))},
					}); err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					committed[k1].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	total := 0
	for i := range committed {
		total += int(committed[i].Load())
	}
	live := collectEvents(t, ch, total, 20*time.Second)
	counts := map[string]int{}
	lastRev := map[string]uint64{}
	for _, ev := range live {
		k := string(ev.Key)
		if ev.Kind == kv.EventLost {
			t.Fatalf("EventLost under a sized buffer: %+v", ev)
		}
		if !bytes.HasPrefix(ev.Key, []byte("w-live-")) {
			continue // stragglers from the sequential phase
		}
		if ev.Rev <= lastRev[k] {
			t.Fatalf("per-key order violated for %s: rev %d after %d", k, ev.Rev, lastRev[k])
		}
		lastRev[k] = ev.Rev
		counts[k]++
	}
	for i := range committed {
		if counts[string(keyOf(i))] != int(committed[i].Load()) {
			t.Fatalf("key %d: %d events for %d committed writes",
				i, counts[string(keyOf(i))], committed[i].Load())
		}
	}
	rcancel()
	// The channel must close after cancellation; quiesce the hub before
	// raw-memory validation.
	endWatch(t, db, cancel, ch)
	if err := validate(); err != nil {
		t.Fatal(err)
	}

	t.Run("ReplayUnwatched", func(t *testing.T) { testDBWatchReplayUnwatched(t, factory) })
	t.Run("ReopenFromNow", func(t *testing.T) { testDBWatchReopenFromNow(t, factory) })
	t.Run("OpenWhileWriting", func(t *testing.T) { testDBWatchOpenWhileWriting(t, factory) })
}

// endWatch cancels a watch, drains its channel until it closes and waits
// for the DB's watch machinery to go idle. It returns the events drained.
func endWatch(t *testing.T, db kv.DB, cancel context.CancelFunc, ch <-chan kv.Event) []kv.Event {
	t.Helper()
	cancel()
	var drained []kv.Event
	deadline := time.After(10 * time.Second)
	for closed := false; !closed; {
		select {
		case ev, ok := <-ch:
			if closed = !ok; !closed {
				drained = append(drained, ev)
			}
		case <-deadline:
			t.Fatal("watch channel did not close after ctx cancellation")
		}
	}
	db.WaitWatchIdle()
	return drained
}

// testDBWatchReplayUnwatched: writes made while no watch is open are
// logged without their values, so a fromRev replay over them delivers
// every event with its key, kind and revision — no loss — and a nil
// Value on each put (the consumer Gets the key on demand).
func testDBWatchReplayUnwatched(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	type want struct {
		kind kv.EventKind
		rev  kv.Revision // 0: a delete, whose revision only has to ascend
	}
	perKey := map[string][]want{}
	put := func(k, v string) {
		t.Helper()
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		_, rev, err := db.GetRev([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		perKey[k] = append(perKey[k], want{kv.EventPut, rev})
	}
	put("ru-a", "1")
	put("ru-b", "2")
	put("ru-a", "3")
	if err := db.Delete([]byte("ru-b")); err != nil {
		t.Fatal(err)
	}
	perKey["ru-b"] = append(perKey["ru-b"], want{kind: kv.EventDelete})
	firstRev := perKey["ru-a"][0].rev
	if r := perKey["ru-b"][0].rev; r < firstRev {
		firstRev = r
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := db.Watch(ctx, []byte("ru-"), firstRev)
	if err != nil {
		t.Fatal(err)
	}
	events := collectEvents(t, ch, 4, 10*time.Second)
	got := map[string][]kv.Event{}
	for _, ev := range events {
		if ev.Kind == kv.EventLost {
			t.Fatalf("replay of an intact, unwatched log reported loss: %+v", events)
		}
		got[string(ev.Key)] = append(got[string(ev.Key)], ev)
	}
	for k, ws := range perKey {
		evs := got[k]
		if len(evs) != len(ws) {
			t.Fatalf("%s: replayed %+v, want %d events", k, evs, len(ws))
		}
		for i, w := range ws {
			ev := evs[i]
			if ev.Kind != w.kind || ev.Value != nil || (w.rev != 0 && ev.Rev != w.rev) ||
				(i > 0 && ev.Rev <= evs[i-1].Rev) {
				t.Fatalf("%s event %d = %+v, want kind %v, rev %d, nil value", k, i, ev, w.kind, w.rev)
			}
		}
	}
	endWatch(t, db, cancel, ch)
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

// testDBWatchReopenFromNow: a watch opened after every earlier watch has
// ended streams from the moment it opens — not from where the last one
// stopped reading, which would deliver writes made while nobody watched.
// Both writes go to one key, so they share a ring and an order.
func testDBWatchReopenFromNow(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := db.Watch(ctx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	endWatch(t, db, cancel, ch)

	key := []byte("reopen")
	if err := db.Put(key, []byte("before")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	ch, err = db.Watch(ctx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(key, []byte("after")); err != nil {
		t.Fatal(err)
	}
	first := collectEvents(t, ch, 1, 10*time.Second)[0]
	if first.Kind != kv.EventPut || !bytes.Equal(first.Key, key) || string(first.Value) != "after" {
		t.Fatalf("first event of a reopened watch = %+v, want the put of %q=after", first, key)
	}
	endWatch(t, db, cancel, ch)
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

// testDBWatchOpenWhileWriting: watches opened and closed while writers
// hammer non-empty puts must carry a value on every put of their live
// streams. A write racing the watch's start either lies before the
// stream's first event or saw the watch and copied its value.
func testDBWatchOpenWhileWriting(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	const writers, keys, rounds, perRound = 3, 8, 8, 24
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var halted sync.Once
	halt := func() { halted.Do(func() { close(stop); wg.Wait() }) }
	defer halt() // a failed round must not leave the writers running
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("ow-%d-%d", w, i%keys))
				if err := db.Put(k, enc64(uint64(w<<32|i))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}()
	}
	check := func(round int, evs []kv.Event) {
		t.Helper()
		for _, ev := range evs {
			if ev.Kind == kv.EventPut && len(ev.Value) != 8 {
				t.Fatalf("round %d: live put %q at rev %d carries value %v", round, ev.Key, ev.Rev, ev.Value)
			}
		}
	}
	for r := 0; r < rounds && !t.Failed(); r++ {
		ctx, cancel := context.WithCancel(context.Background())
		ch, err := db.Watch(ctx, []byte("ow-"), 0)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		check(r, collectEvents(t, ch, perRound, 20*time.Second))
		check(r, endWatch(t, db, cancel, ch))
	}
	halt()
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

// testDBWatchCoalesce pins the overflow ladder under sustained pressure: a
// stalled consumer behind a deliberately tiny delivery queue must degrade
// to latest-value-per-key — older same-key events coalesce away — and as
// long as every overflowing event finds a same-key victim, no EventLost
// marker may fire. The subscriber's terminal view of each key must be the
// last committed value.
func testDBWatchCoalesce(t *testing.T, factory DBFactory) {
	orig := kv.MaxWatchQueue
	kv.MaxWatchQueue = 16
	defer func() { kv.MaxWatchQueue = orig }()

	db, _, validate := factory(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ch, err := db.Watch(ctx, []byte("co-"), 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}

	// 4 keys round-robin for 100 rounds while the consumer stalls: far
	// more events than the 16-slot queue holds, but never more than 4
	// distinct keys, so coalescing can always absorb the overflow.
	const keys, rounds = 4, 100
	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("co-%d", i)) }
	var final [keys]uint64
	for r := 1; r <= rounds; r++ {
		for k := 0; k < keys; k++ {
			v := uint64(r<<8 | k)
			if err := db.Put(keyOf(k), enc64(v)); err != nil {
				t.Fatalf("round %d key %d: %v", r, k, err)
			}
			final[k] = v
		}
	}

	// Drain until the final value of every key has been seen; every event
	// must be a Put under the prefix, per-key revisions strictly ascend,
	// and EventLost is a failure — coalescing had victims available.
	last := map[string]uint64{}
	lastRev := map[string]uint64{}
	seenFinal := 0
	deadline := time.After(20 * time.Second)
	for seenFinal < keys {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("watch channel closed early")
			}
			if ev.Kind == kv.EventLost {
				t.Fatalf("EventLost despite coalescible overflow (last=%v)", last)
			}
			if ev.Kind != kv.EventPut || !bytes.HasPrefix(ev.Key, []byte("co-")) {
				t.Fatalf("unexpected event %+v", ev)
			}
			k := string(ev.Key)
			if ev.Rev <= lastRev[k] {
				t.Fatalf("per-key order violated for %s: rev %d after %d", k, ev.Rev, lastRev[k])
			}
			lastRev[k] = ev.Rev
			v := dec64(ev.Value)
			if prev, ok := last[k]; ok && v <= prev {
				t.Fatalf("stale value resurfaced for %s: %#x after %#x", k, v, prev)
			}
			last[k] = v
			if v == final[int(v)&0xff] {
				seenFinal++
			}
		case <-deadline:
			t.Fatalf("timed out waiting for final values; last=%v final=%v", last, final)
		}
	}
	for k := 0; k < keys; k++ {
		if last[string(keyOf(k))] != final[k] {
			t.Fatalf("key %d terminal value %#x, want %#x", k, last[string(keyOf(k))], final[k])
		}
	}
	endWatch(t, db, cancel, ch)
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}
