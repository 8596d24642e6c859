package kv

import (
	"fmt"
	"testing"

	"rhtm"
	"rhtm/store"
	"rhtm/wal"
)

// TestCaptureCopiesCallerBuffers: a Local's redo capture keeps its own copy
// of every key and value a closure writes. Each Update below rewrites one
// key buffer and one value buffer between its eight puts, and both run on
// the same session, whose capture slab the second reuses; the log, reopened
// from a crash image, must hold all sixteen writes as they were at each
// Put. A capture that borrowed the caller's buffers logs the last key eight
// times per Update.
func TestCaptureCopiesCallerBuffers(t *testing.T) {
	open := func(stg *wal.MemStorage) *Local {
		t.Helper()
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
		dev, err := stg.Device("wal")
		if err != nil {
			t.Fatal(err)
		}
		eng := rhtm.NewRH1(s, rhtm.RH1Options{MixPercent: 100})
		db, err := OpenLocal(eng, store.New(s, store.Options{ArenaWords: 1 << 14}), dev)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	stg := wal.NewMemStorage()
	db := open(stg)

	// Hold every session but one, so that both Updates run on it.
	var held []*localSession
	for i := 0; i < maxSessions-1; i++ {
		held = append(held, db.claim(nil))
	}
	want := map[string]string{}
	key, val := make([]byte, 0, 32), make([]byte, 0, 32)
	for round := 0; round < 2; round++ {
		if err := db.Update(func(tx Txn) error {
			for i := 0; i < 8; i++ {
				key = fmt.Appendf(key[:0], "round%d-key%d", round, i)
				val = fmt.Appendf(val[:0], "round%d-value%d", round, i)
				if err := tx.Put(key, val); err != nil {
					return err
				}
				want[string(key)] = string(val)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range held {
		db.release(s)
	}

	got := map[string]string{}
	it := open(stg.CrashImage(stg.Appended())).Scan(nil, nil, 0)
	for it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("recovered %d keys, want %d: %q", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("recovered %q = %q, want %q", k, got[k], v)
		}
	}
}
