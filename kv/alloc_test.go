package kv_test

import (
	"fmt"
	"testing"

	"rhtm"
	"rhtm/cluster"
	"rhtm/kv"
	"rhtm/store"
	"rhtm/wal"
)

// TestLocalOpAllocs pins what one Local operation allocates on the host:
// only what it hands back or hands on. A Get or GetRev allocates its value;
// a volatile Put, Delete, PutIf or DeleteIf allocates nothing; a logged one
// allocates the one copy MemDevice keeps of the appended frames, which
// stands for the disk. A closure at an entry point, a clone in the capture,
// a fresh commit record in the writer or a value read for its revision and
// dropped each fails it.
func TestLocalOpAllocs(t *testing.T) {
	for _, name := range allEngines {
		t.Run(name, func(t *testing.T) {
			for _, durable := range []bool{false, true} {
				s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
				sh := store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13})
				var db *kv.Local
				if durable {
					var err error
					if db, err = kv.OpenLocal(newEngine(t, s, name, 0), sh, &wal.MemDevice{}); err != nil {
						t.Fatal(err)
					}
				} else {
					db = kv.NewLocal(newEngine(t, s, name, 0), sh)
				}
				key, val := []byte("key-0001"), []byte("value-0001")
				putDelete := func() {
					if err := db.Put(key, val); err != nil {
						t.Fatal(err)
					}
					if err := db.Delete(key); err != nil {
						t.Fatal(err)
					}
				}
				// Warm every pooled session, and the lines the key's
				// transactions touch, before counting.
				for i := 0; i < 100; i++ {
					putDelete()
				}
				put := testing.AllocsPerRun(200, func() {
					if err := db.Put(key, val); err != nil {
						t.Fatal(err)
					}
				})
				get := testing.AllocsPerRun(200, func() {
					if _, err := db.Get(key); err != nil {
						t.Fatal(err)
					}
				})
				del := testing.AllocsPerRun(200, putDelete) - put
				if err := db.Put(key, val); err != nil {
					t.Fatal(err)
				}
				getRev := testing.AllocsPerRun(200, func() {
					if _, _, err := db.GetRev(key); err != nil {
						t.Fatal(err)
					}
				})
				// PutIf rewrites the key at its own revision; DeleteIf then
				// takes it away and a plain Put brings it back.
				putIf := testing.AllocsPerRun(200, func() {
					_, rev, err := db.GetRev(key)
					if err == nil {
						err = db.PutIf(key, val, rev)
					}
					if err != nil {
						t.Fatal(err)
					}
				}) - getRev
				deleteIf := testing.AllocsPerRun(200, func() {
					_, rev, err := db.GetRev(key)
					if err == nil {
						err = db.DeleteIf(key, rev)
					}
					if err == nil {
						err = db.Put(key, val)
					}
					if err != nil {
						t.Fatal(err)
					}
				}) - getRev - put

				want := 0.0
				if durable {
					want = 1
				}
				if get != 1 || put != want || del != want {
					t.Errorf("durable=%v: Get %v, Put %v, Delete %v allocations; want 1, %v, %v",
						durable, get, put, del, want, want)
				}
				if getRev != 1 || putIf != want || deleteIf != want {
					t.Errorf("durable=%v: GetRev %v, PutIf %v, DeleteIf %v allocations; want 1, %v, %v",
						durable, getRev, putIf, deleteIf, want, want)
				}
			}
		})
	}
}

// TestClusterOpAllocs pins what one ClusterDB operation allocates on a
// warmed 2-System cluster, volatile and logged to in-memory streams: what
// the operation hands back, and what the store and the log allocate beneath
// it.
//   - Get: the client's batch result slice, the value read;
//   - Put: the same minus the value, plus the device's copy when logged;
//   - GetRev: the value the store reads, and the copy Txn.Get hands back;
//   - a closure Delete of a present key (Update(tx.Delete), measured with
//     the Put that brings the key back, less that Put): the value the
//     store reads, plus the device's copy when logged;
//   - a read-modify-write Update of one key on each System (two-phase
//     commit): both reads as GetRev's, the store's intent payloads in
//     prepare and finish, and when logged the device's copies of the
//     decision, both applies and the resolution mark.
//
// A transaction built per call, maps for its reads and writes, commit
// scratch built per commit, a closure around an engine body, a batch or
// result slice built for a single-key operation, or a value copied only to
// learn that the key Delete removes is present each fails it. The pins leave the Update room: it reads 10 (14 logged) on an amd64
// host, and one more logged under the race detector, whose sync.Pool drops
// objects at random.
func TestClusterOpAllocs(t *testing.T) {
	for _, tc := range []struct {
		durable                       bool
		get, put, getRev, del, update float64
	}{{false, 2, 1, 2, 1, 18}, {true, 2, 3, 2, 2, 24}} {
		c, err := cluster.New(cluster.Config{Systems: 2, ArenaWords: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		var db *kv.ClusterDB
		if tc.durable {
			if db, err = kv.OpenCluster(c, wal.NewMemStorage()); err != nil {
				t.Fatal(err)
			}
		} else {
			db = kv.NewCluster(c)
		}
		var a, b []byte
		for i := 0; a == nil || b == nil; i++ {
			k := []byte(fmt.Sprintf("acct-%04d", i))
			switch {
			case db.Domain(k) == 0 && a == nil:
				a = k
			case db.Domain(k) == 1 && b == nil:
				b = k
			}
		}
		val := []byte("value-0001")
		for _, k := range [][]byte{a, b} {
			if err := db.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
		swap := func(tx kv.Txn) error {
			va, err := tx.Get(a)
			if err != nil {
				return err
			}
			vb, err := tx.Get(b)
			if err != nil {
				return err
			}
			if err := tx.Put(a, vb); err != nil {
				return err
			}
			return tx.Put(b, va)
		}
		del := func(tx kv.Txn) error { return tx.Delete(a) }
		ops := []struct {
			name string
			want float64
			op   func()
		}{
			{"Get", tc.get, func() {
				if _, err := db.Get(a); err != nil {
					t.Fatal(err)
				}
			}},
			{"Put", tc.put, func() {
				if err := db.Put(a, val); err != nil {
					t.Fatal(err)
				}
			}},
			{"GetRev", tc.getRev, func() {
				if _, _, err := db.GetRev(a); err != nil {
					t.Fatal(err)
				}
			}},
			{"Delete", tc.del, func() {
				if err := db.Update(del); err != nil {
					t.Fatal(err)
				}
				if err := db.Put(a, val); err != nil {
					t.Fatal(err)
				}
			}},
			{"Update", tc.update, func() {
				if err := db.Update(swap); err != nil {
					t.Fatal(err)
				}
			}},
		}
		// Warm every pooled session, and the lines the keys' transactions
		// touch, until the commit-event rings have wrapped.
		for i := 0; i < 1000; i++ {
			for _, o := range ops {
				o.op()
			}
		}
		// The Delete row brings its key back with a Put: its reading is
		// the pair's less the Put row's.
		read := map[string]float64{}
		for _, o := range ops {
			read[o.name] = testing.AllocsPerRun(200, o.op)
			if o.name == "Delete" {
				read[o.name] -= read["Put"]
			}
			if got := read[o.name]; got > o.want {
				t.Errorf("durable=%v: %s costs %v allocations, want at most %v", tc.durable, o.name, got, o.want)
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
