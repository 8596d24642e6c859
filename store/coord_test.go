package store

import (
	"bytes"
	"fmt"
	"testing"

	"rhtm"
	"rhtm/containers"
	"rhtm/wal"
)

// readSharers is how many transactions hold a read intent on key (0 when
// none, or when the pending intent is a write).
func readSharers(st *Store, tx rhtm.Tx, key []byte) int {
	rec, ok := st.intentsOf(key).Lookup(tx, key)
	if !ok {
		return 0
	}
	pb := locBlock(tx.Load(rec + recLocator))
	if IntentKind(tx.Load(pb+1)&0xff) != IntentRead {
		return 0
	}
	return int(tx.Load(pb + 2))
}

// TestSharedReadIntents pins the shared/exclusive matrix: readers coexist
// with readers, everything else conflicts.
func TestSharedReadIntents(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 13})
	tx := containers.SetupTx(s)
	key := []byte("shared")
	if err := st.Put(tx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Three transactions pin the same key with read intents.
	for txid := uint64(1); txid <= 3; txid++ {
		if err := st.PrepareIntent(tx, key, txid, IntentRead, nil, 0); err != nil {
			t.Fatalf("reader %d refused: %v", txid, err)
		}
	}
	if got := readSharers(st, tx, key); got != 3 {
		t.Fatalf("ReadSharers = %d, want 3", got)
	}
	if got := st.PendingIntents(tx); got != 1 {
		t.Fatalf("PendingIntents = %d, want 1 (one shared record)", got)
	}
	// Readers never surface as write intents: reads and scans pass through.
	if _, held := st.WriteIntentOn(tx, key); held {
		t.Fatal("shared read intent reported as a write intent")
	}
	if st.HasWriteIntentInRange(tx, nil, nil) {
		t.Fatal("shared read intent blocked a range check")
	}
	// The same transaction may not prepare the key twice.
	if err := st.PrepareIntent(tx, key, 2, IntentRead, nil, 0); err != ErrIntentHeld {
		t.Fatalf("duplicate reader err = %v, want ErrIntentHeld", err)
	}
	// Writers are refused while any reader holds the key.
	if err := st.PrepareIntent(tx, key, 9, IntentPut, []byte("w"), 0); err != ErrIntentHeld {
		t.Fatalf("writer vs readers err = %v, want ErrIntentHeld", err)
	}

	// Release one reader: the record shrinks but stays shared.
	if _, err := st.ApplyIntent(tx, key, 2); err != nil {
		t.Fatal(err)
	}
	if got := readSharers(st, tx, key); got != 2 {
		t.Fatalf("ReadSharers after release = %d, want 2", got)
	}
	// A released transaction cannot release twice.
	if err := st.DiscardIntent(tx, key, 2); err != ErrIntentMissing {
		t.Fatalf("double release err = %v, want ErrIntentMissing", err)
	}
	// Draining the remaining readers removes the record entirely.
	if err := st.DiscardIntent(tx, key, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyIntent(tx, key, 3); err != nil {
		t.Fatal(err)
	}
	if st.AnyIntentOn(tx, key) {
		t.Fatal("drained read record still pending")
	}
	// Now a writer gets through, and blocks subsequent readers.
	if err := st.PrepareIntent(tx, key, 9, IntentPut, []byte("w"), 0); err != nil {
		t.Fatal(err)
	}
	if err := st.PrepareIntent(tx, key, 10, IntentRead, nil, 0); err != ErrIntentHeld {
		t.Fatalf("reader vs writer err = %v, want ErrIntentHeld", err)
	}
	if _, err := st.ApplyIntent(tx, key, 9); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get(tx, key); !bytes.Equal(v, []byte("w")) {
		t.Fatalf("value = %q, want w", v)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRevisionsMonotonicPerKey: every write stamps a fresh, strictly larger
// revision; deletes consume revisions too, so a reinserted key can never
// repeat one (no ABA across delete/reinsert).
func TestRevisionsMonotonicPerKey(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 13})
	tx := containers.SetupTx(s)
	key := []byte("k")

	if _, ok := st.RevOf(tx, key); ok {
		t.Fatal("absent key has a revision")
	}
	var last uint64
	for i := 0; i < 5; i++ {
		if err := st.Put(tx, key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		rev, ok := st.RevOf(tx, key)
		if !ok || rev <= last {
			t.Fatalf("write %d: rev = %d (ok=%v), want > %d", i, rev, ok, last)
		}
		last = rev
	}
	del(st, tx, key)
	if err := st.Put(tx, key, []byte("again")); err != nil {
		t.Fatal(err)
	}
	rev, _ := st.RevOf(tx, key)
	if rev <= last {
		t.Fatalf("reinserted rev = %d, want > %d (delete must consume a revision)", rev, last)
	}
	// Writes to other keys advance the same per-store clock.
	if err := st.Put(tx, []byte("other"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if orev, _ := st.RevOf(tx, []byte("other")); orev <= rev {
		t.Fatalf("other key rev = %d, want > %d", orev, rev)
	}
}

// TestLeaseStamping: PutLease attaches, plain Put detaches, the intent
// apply path carries the lease through 2PC's phase 2.
func TestLeaseStamping(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 13})
	tx := containers.SetupTx(s)
	key := []byte("session")

	if _, err := st.Write(tx, wal.Op{Kind: wal.OpPut, Key: key, Value: []byte("v1"), Lease: 77}); err != nil {
		t.Fatal(err)
	}
	if _, _, lease, ok := st.Read(tx, key); !ok || lease != 77 {
		t.Fatalf("lease = (%d,%v), want (77,true)", lease, ok)
	}
	if err := st.Put(tx, key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, _, lease, _ := st.Read(tx, key); lease != 0 {
		t.Fatalf("plain Put left lease %d attached", lease)
	}
	if err := st.PrepareIntent(tx, key, 5, IntentPut, []byte("v3"), 88); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyIntent(tx, key, 5); err != nil {
		t.Fatal(err)
	}
	val, _, lease, ok := st.Read(tx, key)
	if !ok || !bytes.Equal(val, []byte("v3")) || lease != 88 {
		t.Fatalf("Read = (%q, lease=%d, ok=%v), want (v3, 88, true)", val, lease, ok)
	}
}

// TestEventLogOrder: the log records every committed mutation in order,
// with per-key revisions ascending, and delete events carry no value.
func TestEventLogOrder(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 13})
	tx := containers.SetupTx(s)
	log := st.Events()
	log.AddWatchers(tx, 1) // a watched ring carries put values
	from := log.Head(tx)

	if err := st.Put(tx, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(tx, []byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(tx, []byte("a"), []byte("3")); err != nil {
		t.Fatal(err)
	}
	del(st, tx, []byte("b"))

	events, next, oldest := log.Read(tx, from, 100)
	if oldest > from {
		t.Fatalf("log compacted immediately: oldest %d > from %d", oldest, from)
	}
	if next <= from || len(events) != 4 {
		t.Fatalf("Read returned %d events (next=%d)", len(events), next)
	}
	wantKeys := []string{"a", "b", "a", "b"}
	wantKinds := []EvKind{EvPut, EvPut, EvPut, EvDelete}
	var lastRev uint64
	for i, ev := range events {
		if string(ev.Key) != wantKeys[i] || ev.Kind != wantKinds[i] {
			t.Fatalf("event %d = %q/%v, want %q/%v", i, ev.Key, ev.Kind, wantKeys[i], wantKinds[i])
		}
		if ev.Rev <= lastRev {
			t.Fatalf("event %d rev %d not ascending past %d", i, ev.Rev, lastRev)
		}
		lastRev = ev.Rev
	}
	if !bytes.Equal(events[2].Value, []byte("3")) {
		t.Fatalf("overwrite event value = %q, want 3", events[2].Value)
	}
	if events[3].Value != nil {
		t.Fatalf("delete event carries value %q", events[3].Value)
	}

	// Incremental reads resume exactly where they left off.
	half, mid, _ := log.Read(tx, from, 2)
	rest, end, _ := log.Read(tx, mid, 100)
	if len(half) != 2 || len(rest) != 2 || end != next {
		t.Fatalf("chunked read: %d + %d events, end %d vs %d", len(half), len(rest), end, next)
	}
}

// TestEventLogElidesUnwatchedValues: while no watch streams the ring, a
// put logs kind, key and revision with its value elided; a delete logs as
// it always did; once a watch is counted, puts carry their values again,
// and when it is lowered they stop.
func TestEventLogElidesUnwatchedValues(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 13})
	tx := containers.SetupTx(s)
	log := st.Events()
	from := log.Head(tx)

	put := func(k, v string) {
		t.Helper()
		if err := st.Put(tx, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	put("a", "unwatched")
	del(st, tx, []byte("a"))
	log.AddWatchers(tx, 1)
	put("b", "watched")
	log.AddWatchers(tx, -1)
	put("c", "unwatched again")

	events, _, _ := log.Read(tx, from, 100)
	if len(events) != 4 {
		t.Fatalf("Read returned %d events, want 4: %+v", len(events), events)
	}
	want := []struct {
		kind   EvKind
		key    string
		value  string
		elided bool
	}{
		{EvPut, "a", "", true},
		{EvDelete, "a", "", false},
		{EvPut, "b", "watched", false},
		{EvPut, "c", "", true},
	}
	for i, ev := range events {
		w := want[i]
		if ev.Kind != w.kind || string(ev.Key) != w.key || ev.ValueElided != w.elided ||
			string(ev.Value) != w.value || ev.Rev != uint64(i+1) {
			t.Fatalf("event %d = %+v, want kind %v key %q value %q elided %v rev %d",
				i, ev, w.kind, w.key, w.value, w.elided, i+1)
		}
		if w.elided && ev.Value != nil {
			t.Fatalf("event %d: elided value is %q, want nil", i, ev.Value)
		}
	}
}

// TestEventLogWrapAndCompaction: a small ring overwrites old records whole,
// keeps records decodable across the wrap boundary, and reports the gap to
// a lagging reader.
func TestEventLogWrapAndCompaction(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 13, LogWords: minLogWords})
	tx := containers.SetupTx(s)
	log := st.Events()
	log.AddWatchers(tx, 1) // a watched ring carries put values

	for i := 0; i < 100; i++ {
		if err := st.Put(tx, []byte(fmt.Sprintf("key-%02d", i%7)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	events, next, oldest := log.Read(tx, 0, 1000)
	if oldest == 0 {
		t.Fatal("100 writes through a 64-word ring never compacted")
	}
	if len(events) == 0 {
		t.Fatal("no events retained")
	}
	if next != log.Head(tx) {
		t.Fatalf("read stopped at %d, head %d", next, log.Head(tx))
	}
	// Retained events decode coherently: ascending revisions, sane keys.
	var lastRev uint64
	for i, ev := range events {
		if ev.Rev <= lastRev {
			t.Fatalf("event %d rev %d not ascending", i, ev.Rev)
		}
		lastRev = ev.Rev
		if len(ev.Key) != 6 || ev.Kind != EvPut {
			t.Fatalf("event %d decoded as %q/%v", i, ev.Key, ev.Kind)
		}
	}
	// The newest event must be the last write.
	last := events[len(events)-1]
	if string(last.Key) != "key-99"[:0]+fmt.Sprintf("key-%02d", 99%7) || last.Value[0] != 99 {
		t.Fatalf("newest event = %q=%v", last.Key, last.Value)
	}

	// Oversized values are elided rather than flushing the whole ring.
	big := make([]byte, 8*minLogWords)
	if err := st.Put(tx, []byte("big"), big); err != nil {
		t.Fatal(err)
	}
	events, _, _ = log.Read(tx, log.Head(tx)-3, 10)
	found := false
	for _, ev := range events {
		if string(ev.Key) == "big" {
			found = true
			if !ev.ValueElided || ev.Value != nil {
				t.Fatalf("oversized value not elided: %+v", ev)
			}
		}
	}
	if !found {
		t.Fatal("elided event missing")
	}
}
