package repl_test

import (
	"fmt"
	"testing"

	"rhtm"
	"rhtm/containers"
	"rhtm/internal/enginetest"
	"rhtm/internal/scratch"
	"rhtm/kv"
	"rhtm/repl"
	"rhtm/store"
	"rhtm/wal"
)

// TestCatchUpScratch: a follower that caught up from a checkpoint unit of
// 20,000 records keeps at most scratch.Bound more than one that caught up
// from a checkpoint of one record. Each primary's log is that one unit (the
// records are loaded before the log exists, then checkpointed into it).
// Applying it is one engine transaction on the follower's pump thread,
// whose sets run to megabytes, and the tailer reads the whole log in one
// copy; neither may outlive the catch-up. The one-record follower runs
// first and measures what any follower keeps (its DB, metrics, streams).
func TestCatchUpScratch(t *testing.T) {
	value := make([]byte, 64)
	follow := func(records int) (kept int64) {
		t.Helper()
		newSide := func() (*rhtm.System, *store.Sharded) {
			s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 21))
			return s, store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 18})
		}
		ps, pst := newSide()
		tx := containers.SetupTx(ps)
		for i := 0; i < records; i++ {
			if err := pst.Put(tx, []byte(fmt.Sprintf("user%08d", i)), value); err != nil {
				t.Fatal(err)
			}
		}
		dev, err := wal.NewMemStorage().Device("wal")
		if err != nil {
			t.Fatal(err)
		}
		db, err := kv.OpenLocal(rhtm.NewTL2(ps), pst, dev)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		g, err := repl.NewLocalGroup(db, dev)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		rs, rst := newSide()
		reng := rhtm.NewTL2(rs)
		heap0 := enginetest.LiveHeap()
		f, err := g.AddLocalReplica(reng, rst)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		kept = int64(enginetest.LiveHeap()) - int64(heap0)
		last := []byte(fmt.Sprintf("user%08d", records-1))
		if _, _, _, err := f.ReadAt(last, 0); err != nil {
			t.Fatalf("the follower misses %s: %v", last, err)
		}
		t.Logf("a follower caught up from a %d-record checkpoint (%d bytes of log) keeps %d bytes", records, dev.Size(), kept)
		return kept
	}
	base := follow(1)
	if kept := follow(20_000); kept-base > scratch.Bound {
		t.Errorf("a follower that caught up from a 20,000-record checkpoint keeps %d bytes more than one from a 1-record checkpoint, want at most %d", kept-base, scratch.Bound)
	}
}
