package kv_test

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"rhtm"
	"rhtm/cluster"
	"rhtm/kv"
	"rhtm/store"
)

// TestRetryConflictsThenCommits: Retry calls op again while it conflicts,
// numbering the attempts, and hands back the first other result unchanged.
// The first four backoffs only yield, so this takes no sleep.
func TestRetryConflictsThenCommits(t *testing.T) {
	var attempts []int
	err := kv.Retry(func(attempt int) error {
		attempts = append(attempts, attempt)
		if attempt < 3 {
			return fmt.Errorf("attempt %d: %w", attempt, kv.ErrConflict)
		}
		return nil
	})
	if err != nil || !slices.Equal(attempts, []int{0, 1, 2, 3}) {
		t.Fatalf("Retry = %v after attempts %v; want nil after [0 1 2 3]", err, attempts)
	}

	boom := errors.New("boom")
	calls := 0
	if err := kv.Retry(func(int) error { calls++; return boom }); err != boom || calls != 1 {
		t.Fatalf("Retry = %v after %d calls; want boom itself after 1", err, calls)
	}
}

// TestClusterSwallowedIntentConflict: a closure reads a key held by a
// parked prepare's write intent, ignores the read's error, and writes
// another key. The read's conflict sticks to the transaction, so no run of
// the closure commits while the intent is pending; once it is released, the
// closure run again commits.
func TestClusterSwallowedIntentConflict(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Systems:    2,
		ArenaWords: 1 << 13,
		NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
			return rhtm.NewTL2(s), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := kv.NewCluster(c, kv.WithClock(kv.NewManualClock()))
	held, other := []byte("held"), []byte("other")
	if err := db.Put(held, []byte("old")); err != nil {
		t.Fatal(err)
	}
	// A prepare that never hears its decision: the intent stays until the
	// test discards it. The id is far above any the cluster hands out.
	n := c.Node(c.Router().SystemFor(held))
	parker := n.Engine().NewThread()
	const txid = 1 << 40
	if err := parker.Atomic(func(tx rhtm.Tx) error {
		return n.Store().PrepareIntent(tx, held, txid, store.IntentPut, []byte("new"), 0)
	}); err != nil {
		t.Fatal(err)
	}

	var runs atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- db.Update(func(tx kv.Txn) error {
			runs.Add(1)
			_, _ = tx.Get(held) // swallowed on purpose
			return tx.Put(other, []byte("written"))
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runs.Load() < 5 {
		select {
		case err := <-done:
			t.Fatalf("Update returned %v after %d runs with the intent still pending", err, runs.Load())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("closure ran %d times in 10s", runs.Load())
		}
		time.Sleep(50 * time.Microsecond)
	}
	if _, err := db.Get(other); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("Get(other) with the intent pending = %v, want ErrNotFound", err)
	}

	if err := parker.Atomic(func(tx rhtm.Tx) error {
		return n.Store().DiscardIntent(tx, held, txid)
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Update after the intent was released: %v", err)
	}
	if v, err := db.Get(other); err != nil || string(v) != "written" {
		t.Fatalf("Get(other) = %q, %v; want \"written\"", v, err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
