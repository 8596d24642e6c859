package store

import (
	"bytes"
	"fmt"
	"testing"

	"rhtm"
	"rhtm/containers"
)

func TestIntentLifecycle(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 13})
	tx := containers.SetupTx(s)
	key := []byte("balance")
	if err := st.Put(tx, key, []byte("old")); err != nil {
		t.Fatal(err)
	}

	// No intent yet.
	if st.AnyIntentOn(tx, key) {
		t.Fatal("fresh key reports a pending intent")
	}
	// Prepare a put intent: the committed value must not change yet.
	if err := st.PrepareIntent(tx, key, 42, IntentPut, []byte("new-value"), 0); err != nil {
		t.Fatal(err)
	}
	if owner, held := st.WriteIntentOn(tx, key); !held || owner != 42 {
		t.Fatalf("WriteIntentOn = (%d,%v), want (42,true)", owner, held)
	}
	if v, _ := st.Get(tx, key); !bytes.Equal(v, []byte("old")) {
		t.Fatalf("prepare changed the committed value to %q", v)
	}
	if got := st.PendingIntents(tx); got != 1 {
		t.Fatalf("PendingIntents = %d, want 1", got)
	}
	// A second transaction must be refused.
	if err := st.PrepareIntent(tx, key, 43, IntentPut, []byte("x"), 0); err != ErrIntentHeld {
		t.Fatalf("second prepare err = %v, want ErrIntentHeld", err)
	}
	// Apply with the wrong owner fails and leaves the intent in place; with
	// the right owner it installs.
	if _, err := st.ApplyIntent(tx, key, 7); err == nil {
		t.Fatal("apply with wrong txid succeeded")
	}
	if _, held := st.WriteIntentOn(tx, key); !held {
		t.Fatal("failed apply consumed the intent")
	}
	st2 := New(s, Options{ArenaWords: 1 << 13})
	if err := st2.Put(tx, key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := st2.PrepareIntent(tx, key, 42, IntentPut, []byte("new-value"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.ApplyIntent(tx, key, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := st2.Get(tx, key); !bytes.Equal(v, []byte("new-value")) {
		t.Fatalf("after apply value = %q, want new-value", v)
	}
	if got := st2.PendingIntents(tx); got != 0 {
		t.Fatalf("PendingIntents after apply = %d, want 0", got)
	}
	if err := st2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIntentKinds(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 13})
	tx := containers.SetupTx(s)

	// Delete intent removes the key on apply.
	if err := st.Put(tx, []byte("gone"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := st.PrepareIntent(tx, []byte("gone"), 1, IntentDelete, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyIntent(tx, []byte("gone"), 1); err != nil {
		t.Fatal(err)
	}
	if has(st, tx, []byte("gone")) {
		t.Fatal("delete intent did not remove the key")
	}

	// Read intent locks without mutating; apply is a pure release.
	if err := st.Put(tx, []byte("ro"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := st.PrepareIntent(tx, []byte("ro"), 2, IntentRead, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyIntent(tx, []byte("ro"), 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get(tx, []byte("ro")); !bytes.Equal(v, []byte("v")) {
		t.Fatalf("read intent mutated the value: %q", v)
	}

	// Discard releases a put intent without applying it.
	if err := st.PrepareIntent(tx, []byte("never"), 3, IntentPut, []byte("phantom"), 0); err != nil {
		t.Fatal(err)
	}
	if err := st.DiscardIntent(tx, []byte("never"), 3); err != nil {
		t.Fatal(err)
	}
	if has(st, tx, []byte("never")) {
		t.Fatal("discarded put intent reached the store")
	}
	if _, err := st.ApplyIntent(tx, []byte("never"), 3); err != ErrIntentMissing {
		t.Fatalf("apply after discard err = %v, want ErrIntentMissing", err)
	}
	if got := st.PendingIntents(tx); got != 0 {
		t.Fatalf("PendingIntents = %d, want 0", got)
	}
}

// TestIntentAbortRollback: a prepare inside an aborted engine transaction
// must leave no intent behind (intent state is simulated words, so the
// engine's rollback covers it).
func TestIntentAbortRollback(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 13})
	eng := rhtm.NewTL2(s)
	th := eng.NewThread()
	sentinel := fmt.Errorf("user abort")
	err := th.Atomic(func(tx rhtm.Tx) error {
		if err := st.PrepareIntent(tx, []byte("k"), 9, IntentPut, []byte("v"), 0); err != nil {
			return err
		}
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
	tx := containers.SetupTx(s)
	if st.AnyIntentOn(tx, []byte("k")) {
		t.Fatal("aborted prepare left an intent")
	}
	if got := st.PendingIntents(tx); got != 0 {
		t.Fatalf("PendingIntents = %d, want 0", got)
	}
}

// TestIntentFreeListReuse: a prepare/apply cycle must recycle its blocks —
// the intent machinery reaches steady state like the data path does.
func TestIntentFreeListReuse(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 13})
	tx := containers.SetupTx(s)
	if err := st.Put(tx, []byte("k"), make([]byte, 24)); err != nil {
		t.Fatal(err)
	}
	prime := func(txid uint64) {
		if err := st.PrepareIntent(tx, []byte("k"), txid, IntentPut, make([]byte, 24), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ApplyIntent(tx, []byte("k"), txid); err != nil {
			t.Fatal(err)
		}
	}
	prime(1)
	after1 := bumped(st.arena)
	for i := uint64(2); i < 40; i++ {
		prime(i)
	}
	if got := bumped(st.arena); got != after1 {
		t.Fatalf("intent churn grew the arena: %d -> %d words", after1, got)
	}
}

// TestIntentApplyReservedSurvivesFullArena: once a put intent is prepared,
// applying it must succeed even if the arena is exhausted in between — the
// prepare reserved the apply-time value block, so a decided transaction can
// always be discharged (the cluster's phase 2 relies on this).
func TestIntentApplyReservedSurvivesFullArena(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 10})
	tx := containers.SetupTx(s)
	key := []byte("grows")
	if err := st.Put(tx, key, make([]byte, 16)); err != nil { // class-4 value block
		t.Fatal(err)
	}
	newVal := bytes.Repeat([]byte{7}, 40) // class-8: apply cannot rewrite in place
	if err := st.PrepareIntent(tx, key, 5, IntentPut, newVal, 0); err != nil {
		t.Fatal(err)
	}
	// Exhaust the bump frontier completely.
	for {
		if _, err := st.arena.TxAlloc(tx, 1); err != nil {
			break
		}
	}
	// A plain Put of the same shape now fails for want of a class-8 block...
	if err := st.Put(tx, []byte("other"), bytes.Repeat([]byte{9}, 40)); err != ErrArenaFull {
		t.Fatalf("plain Put on full arena err = %v, want ErrArenaFull", err)
	}
	// ...but the decided apply still goes through on its reservation.
	if _, err := st.ApplyIntent(tx, key, 5); err != nil {
		t.Fatalf("ApplyIntent on full arena: %v", err)
	}
	if v, _ := st.Get(tx, key); !bytes.Equal(v, newVal) {
		t.Fatalf("applied value = %x", v)
	}
}

func TestStoreStats(t *testing.T) {
	s := newSys(1 << 17)
	st := New(s, Options{ArenaWords: 1 << 13})
	tx := containers.SetupTx(s)
	for i := 0; i < 20; i++ {
		if err := st.Put(tx, []byte(fmt.Sprintf("key%02d", i)), make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PrepareIntent(tx, []byte("key01"), 5, IntentRead, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Delete last so its freed blocks are still on the free lists below
	// (an allocation would recycle them).
	del(st, tx, []byte("key00"))
	got := st.Stats(tx)
	if got.LiveKeys != 19 {
		t.Fatalf("LiveKeys = %d, want 19", got.LiveKeys)
	}
	if got.PendingIntents != 1 {
		t.Fatalf("PendingIntents = %d, want 1", got.PendingIntents)
	}
	if got.Arena.CapacityWords != 1<<13 {
		t.Fatalf("CapacityWords = %d, want %d", got.Arena.CapacityWords, 1<<13)
	}
	// One record was deleted, so its blocks sit on free lists.
	if got.Arena.FreeListWords <= 0 {
		t.Fatal("FreeListWords = 0 after a delete")
	}
	if got.Arena.LiveWords+got.Arena.FreeListWords != got.Arena.BumpedWords {
		t.Fatalf("live %d + free %d != bumped %d",
			got.Arena.LiveWords, got.Arena.FreeListWords, got.Arena.BumpedWords)
	}
	// Sharded aggregates.
	sh := NewSharded(s, 2, Options{ArenaWords: 1 << 12})
	for i := 0; i < 10; i++ {
		if err := sh.Put(tx, []byte(fmt.Sprintf("u%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	agg := sh.Stats(tx)
	if agg.LiveKeys != 10 {
		t.Fatalf("sharded LiveKeys = %d, want 10", agg.LiveKeys)
	}
	if agg.Arena.CapacityWords != 2<<12 {
		t.Fatalf("sharded CapacityWords = %d, want %d", agg.Arena.CapacityWords, 2<<12)
	}
}
