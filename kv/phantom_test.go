package kv_test

import (
	"fmt"
	"sync"
	"testing"

	"rhtm"
	"rhtm/cluster"
	"rhtm/kv"
)

// TestClusterScanPhantomProtection is the regression test for phantom
// protection on in-transaction cluster scans: a closure scans a range and
// derives a value from it; mid-transaction a second client inserts a key
// *inside* that range. Without range revalidation the commit sees only its
// per-key reads (all unchanged) and commits a stale derivation; with it the
// commit conflicts, the closure re-runs, and the retry observes the insert.
func TestClusterScanPhantomProtection(t *testing.T) {
	for _, systems := range []int{1, 3} {
		t.Run(fmt.Sprintf("Systems%d", systems), func(t *testing.T) {
			c, err := cluster.New(cluster.Config{
				Systems:    systems,
				ArenaWords: 1 << 13,
				NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
					return rhtm.NewTL2(s), nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			db := kv.NewCluster(c, kv.WithClock(kv.NewManualClock()))
			for _, k := range []string{"acct/a", "acct/b"} {
				if err := db.Put([]byte(k), []byte("1")); err != nil {
					t.Fatal(err)
				}
			}

			var once sync.Once
			attempts := 0
			err = db.Update(func(tx kv.Txn) error {
				attempts++
				n := 0
				it := tx.Scan([]byte("acct/"), []byte("acct0"), 0)
				for it.Next() {
					n++
				}
				if err := it.Err(); err != nil {
					return err
				}
				// The phantom: after the scan but before commit, a second
				// client inserts a key inside the scanned range. Exactly
				// once — the retried closure must count it.
				once.Do(func() {
					if err := db.Put([]byte("acct/c"), []byte("1")); err != nil {
						t.Errorf("concurrent insert: %v", err)
					}
				})
				return tx.Put([]byte("total"), []byte(fmt.Sprintf("%d", n)))
			})
			if err != nil {
				t.Fatal(err)
			}

			got, err := db.Get([]byte("total"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "3" {
				t.Errorf("committed total = %s, want 3 (phantom key missed)", got)
			}
			if attempts < 2 {
				t.Errorf("closure ran %d time(s), want a conflict-driven retry", attempts)
			}
			if pc := c.Counters().PhantomConflicts; pc == 0 {
				t.Error("PhantomConflicts counter did not advance")
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
