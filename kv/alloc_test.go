package kv_test

import (
	"testing"

	"rhtm"
	"rhtm/kv"
	"rhtm/store"
	"rhtm/wal"
)

// TestLocalOpAllocs pins what one direct Local operation allocates on the
// host: only what it hands back or hands on. A Get allocates its value; a
// volatile Put or Delete allocates nothing; a logged Put or Delete
// allocates the one copy MemDevice keeps of the appended frames, which
// stands for the disk. A closure at an entry point, a clone in the capture
// or a fresh commit record in the writer each fails it.
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

				want := 0.0
				if durable {
					want = 1
				}
				if get != 1 || put != want || del != want {
					t.Errorf("durable=%v: Get %v, Put %v, Delete %v allocations; want 1, %v, %v",
						durable, get, put, del, want, want)
				}
			}
		})
	}
}
