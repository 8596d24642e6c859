package kv_test

import (
	"fmt"
	"sync"
	"testing"

	"rhtm"
	"rhtm/cluster"
	"rhtm/kv"
)

// TestClusterScanPhantomProtection: a commit the cluster refuses because a
// key entered a range the closure scanned is counted in PhantomConflicts.
// That the closure then runs again and commits what the range holds is the
// battery's DBPhantom section, on every backend; the counter is what it
// cannot see.
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
			var once sync.Once
			err = db.Update(func(tx kv.Txn) error {
				it := tx.Scan([]byte("acct/"), []byte("acct0"), 0)
				for it.Next() {
				}
				if err := it.Err(); err != nil {
					return err
				}
				once.Do(func() {
					if err := db.Put([]byte("acct/a"), []byte("1")); err != nil {
						t.Errorf("concurrent insert: %v", err)
					}
				})
				return tx.Put([]byte("total"), []byte("0"))
			})
			if err != nil {
				t.Fatal(err)
			}
			if pc := c.Counters().PhantomConflicts; pc == 0 {
				t.Error("PhantomConflicts counter did not advance")
			}
		})
	}
}
