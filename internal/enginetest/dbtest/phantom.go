package dbtest

import (
	"fmt"
	"sync"
	"testing"

	"rhtm/kv"
)

// RunPhantom pins phantom protection for a closure's Scan: the closure
// scans a range and derives a value from what it saw; after the scan, but
// before the closure commits, another session changes the range's
// membership. Every key the closure read is unchanged, so a backend that
// validated only those would commit the stale derivation. The commit must
// instead conflict, and the closure run again and see the change. Each
// backend gets there its own way: Local by the scan's own reads of the
// tree's links, the cluster by revalidating scanned ranges at commit, the
// wire front end by re-scanning the ranges a commit frame carries.
//
// The three changes are the ones a range can see: a key inserted into a
// range that was empty (through a limit-1 probe, the shape table.Table's
// cardinality maintenance uses), a key inserted between two present ones,
// and a present key deleted.
func RunPhantom(t *testing.T, factory DBFactory) {
	cases := []struct {
		name   string
		seed   []string // keys present before the closure
		limit  int
		mutate func(db kv.DB) error // the concurrent change, made once
		want   string               // the total that must commit
	}{
		{"EmptyRangeProbe", nil, 1,
			func(db kv.DB) error { return db.Put([]byte("acct/a"), []byte("1")) }, "1"},
		{"InsertIntoRange", []string{"acct/a", "acct/b"}, 0,
			func(db kv.DB) error { return db.Put([]byte("acct/c"), []byte("1")) }, "3"},
		{"DeleteFromRange", []string{"acct/a", "acct/b"}, 0,
			func(db kv.DB) error { return db.Delete([]byte("acct/b")) }, "1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, _, validate := factory(t)
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
