package client_test

import (
	"fmt"
	"sync"
	"testing"

	"rhtm/internal/enginetest/dbtest"
	"rhtm/kv"
)

// TestNetScanPhantomProtection is kv's TestClusterScanPhantomProtection
// over the wire: a client closure scans a range and derives a value from
// it; after the scan but before the commit a second request changes the
// range's membership. The commit frame carries the scanned range, so the
// server refuses it, the closure re-runs, and the retry observes the
// change. Without the range every recorded read is still valid and the
// stale derivation commits. The empty-range probe is the shape
// table.Table's cardinality maintenance uses (a limit-1 scan of one index
// value).
func TestNetScanPhantomProtection(t *testing.T) {
	backends := []struct {
		name    string
		factory dbtest.DBFactory
	}{
		{"Local", netLocalFactory("TL2", 2, 0)},
		{"Cluster2", netClusterFactory("TL2", 2, 0)},
	}
	cases := []struct {
		name   string
		seed   []string // keys present before the closure
		limit  int
		mutate func(db kv.DB) error // the concurrent change, run once
		want   string               // the committed count
	}{
		{"EmptyRangeProbe", nil, 1,
			func(db kv.DB) error { return db.Put([]byte("acct/a"), []byte("1")) }, "1"},
		{"InsertIntoRange", []string{"acct/a", "acct/b"}, 0,
			func(db kv.DB) error { return db.Put([]byte("acct/c"), []byte("1")) }, "3"},
		{"DeleteFromRange", []string{"acct/a", "acct/b"}, 0,
			func(db kv.DB) error { return db.Delete([]byte("acct/b")) }, "1"},
	}
	for _, b := range backends {
		for _, tc := range cases {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				db, _, validate := b.factory(t)
				for _, k := range tc.seed {
					if err := db.Put([]byte(k), []byte("1")); err != nil {
						t.Fatal(err)
					}
				}
				var once sync.Once
				attempts := 0
				err := db.Update(func(tx kv.Txn) error {
					attempts++
					n := 0
					it := tx.Scan([]byte("acct/"), []byte("acct0"), tc.limit)
					for it.Next() {
						n++
					}
					if err := it.Err(); err != nil {
						return err
					}
					once.Do(func() {
						if err := tc.mutate(db); err != nil {
							t.Errorf("concurrent change: %v", err)
						}
					})
					return tx.Put([]byte("total"), []byte(fmt.Sprint(n)))
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := db.Get([]byte("total"))
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != tc.want {
					t.Errorf("committed total = %s, want %s (stale scan committed)", got, tc.want)
				}
				if attempts < 2 {
					t.Errorf("closure ran %d time(s), want a conflict-driven retry", attempts)
				}
				if err := validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
