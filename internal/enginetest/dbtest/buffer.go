package dbtest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rhtm/kv"
)

// scanKeys drains a closure cursor into its keys and values.
func scanKeys(it kv.Iterator) ([]string, [][]byte, error) {
	var keys []string
	var vals [][]byte
	for it.Next() {
		keys = append(keys, string(it.Key()))
		vals = append(vals, append([]byte(nil), it.Value()...))
	}
	return keys, vals, it.Err()
}

// testDBBufferClamp pins the keyspace clamp of a closure's Scan over its
// own buffered writes: a nil-bounded scan sees user keys only, and a scan
// starting in the index namespace stays inside it — the rule the DB-level
// Scan follows, applied to writes the closure has not committed yet.
func testDBBufferClamp(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	idxKey := append(append([]byte(nil), kv.IndexSpace...), "clamp-entry"...)
	userKey := []byte("clamp-user")
	err := db.Update(func(tx kv.Txn) error {
		if err := tx.Put(idxKey, []byte("i")); err != nil {
			return err
		}
		if err := tx.Put(userKey, []byte("u")); err != nil {
			return err
		}
		for _, sc := range []struct {
			start []byte
			want  string
		}{{nil, string(userKey)}, {kv.IndexSpace, string(idxKey)}} {
			keys, _, err := scanKeys(tx.Scan(sc.start, nil, 0))
			if err != nil {
				return err
			}
			if len(keys) != 1 || keys[0] != sc.want {
				return fmt.Errorf("Scan(%q, nil) inside the closure = %q, want [%q]", sc.start, keys, sc.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

// testDBBufferRules pins the rules of a closure's read set and write
// buffer, the same on every backend:
//
//   - one observation per key per attempt: a Get and a later Scan of the
//     same key agree, even when another session commits the key between
//     them — and on the optimistic backends that attempt then conflicts and
//     the closure runs again;
//   - Put then Delete of one key leaves it absent, whether or not it
//     existed before the closure;
//   - Delete of an absent key is ErrNotFound and does not spoil the commit;
//   - a limited Scan over buffered deletes still fills up to its limit.
//
// What kv.Txn documents as backend-specific — Revision after the closure's
// own write of the key — is left alone.
func testDBBufferRules(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	for i := 0; i < 6; i++ {
		if err := db.Put([]byte(fmt.Sprintf("rule-%d", i)), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("OneObservation", func(t *testing.T) {
		// On Local the closure is one engine transaction, and a closure
		// calling back into the DB from inside it may wait on itself (see
		// optimisticClosures), so only the optimistic backends interleave.
		interleave := optimisticClosures(db)
		key := []byte("rule-0")
		runs := 0
		err := db.Update(func(tx kv.Txn) error {
			runs++
			got, err := tx.Get(key)
			if err != nil {
				return err
			}
			if interleave && runs == 1 {
				if err := db.Put(key, []byte("v2")); err != nil {
					return err
				}
			}
			keys, vals, err := scanKeys(tx.Scan([]byte("rule-"), []byte("rule-~"), 0))
			if err != nil {
				return err
			}
			if len(keys) == 0 || keys[0] != string(key) || !bytes.Equal(vals[0], got) {
				return fmt.Errorf("run %d: Get(%s) = %q, then Scan yielded %q = %q", runs, key, got, keys, vals)
			}
			return tx.Put([]byte("rule-seen"), got)
		})
		if err != nil {
			t.Fatal(err)
		}
		want, wantRuns := "v1", 1
		if interleave {
			want, wantRuns = "v2", 2
		}
		if v, err := db.Get([]byte("rule-seen")); err != nil || string(v) != want || runs != wantRuns {
			t.Fatalf("closure ran %d times and committed %q (%v); want %d runs committing %q", runs, v, err, wantRuns, want)
		}
	})

	t.Run("PutThenDelete", func(t *testing.T) {
		keys := [][]byte{[]byte("rule-1"), []byte("rule-fresh")} // present, absent
		err := db.Update(func(tx kv.Txn) error {
			for _, k := range keys {
				if err := tx.Put(k, []byte("v2")); err != nil {
					return err
				}
				if err := tx.Delete(k); err != nil {
					return fmt.Errorf("Delete(%s) after Put: %w", k, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if _, err := db.Get(k); !errors.Is(err, kv.ErrNotFound) {
				t.Errorf("Get(%s) after Put+Delete = %v, want ErrNotFound", k, err)
			}
		}
	})

	t.Run("DeleteAbsent", func(t *testing.T) {
		err := db.Update(func(tx kv.Txn) error {
			if err := tx.Delete([]byte("rule-never")); !errors.Is(err, kv.ErrNotFound) {
				return fmt.Errorf("Delete of an absent key = %v, want ErrNotFound", err)
			}
			return tx.Put([]byte("rule-after"), []byte("v"))
		})
		if err != nil {
			t.Fatal(err)
		}
		if v, err := db.Get([]byte("rule-after")); err != nil || string(v) != "v" {
			t.Fatalf("Get(rule-after) = %q, %v", v, err)
		}
	})

	t.Run("LimitOverDeletes", func(t *testing.T) {
		// rule-1 is gone (PutThenDelete); rule-0 and rule-2..5 remain.
		err := db.Update(func(tx kv.Txn) error {
			for _, k := range []string{"rule-0", "rule-2", "rule-3"} {
				if err := tx.Delete([]byte(k)); err != nil {
					return err
				}
			}
			keys, _, err := scanKeys(tx.Scan([]byte("rule-0"), []byte("rule-9"), 2))
			if err != nil {
				return err
			}
			if fmt.Sprint(keys) != "[rule-4 rule-5]" {
				return fmt.Errorf("Scan limit 2 over three buffered deletes = %q, want [rule-4 rule-5]", keys)
			}
			return errUserAbort
		})
		if err != errUserAbort {
			t.Fatal(err)
		}
	})

	if err := validate(); err != nil {
		t.Fatal(err)
	}
}
