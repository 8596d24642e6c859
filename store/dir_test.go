package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rhtm"
	"rhtm/containers"
)

// runsUnder counts how often read's body runs when write commits under it:
// the reader runs once and parks, a second thread commits write, and the
// reader resumes under RH1 — re-running only if write stored a line it read.
func runsUnder(t *testing.T, s *rhtm.System, read, write func(rhtm.Tx) error) int {
	t.Helper()
	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())
	reader, committer := eng.NewThread(), eng.NewThread()
	parked, resume, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	runs := 0
	go func() {
		done <- reader.Atomic(func(tx rhtm.Tx) error {
			runs++
			if err := read(tx); err != nil {
				return err
			}
			if runs == 1 {
				close(parked)
				<-resume
			}
			return nil
		})
	}()
	<-parked
	err := committer.Atomic(write)
	close(resume)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return runs
}

// slotOf returns the directory slot holding key (setup path).
func slotOf(t *testing.T, st *Store, key []byte) int {
	t.Helper()
	_, slot, ok := st.find(containers.SetupTx(st.sys), key)
	if !ok {
		t.Fatalf("%s not in the directory", key)
	}
	return slot
}

// keyHomedAt returns the first userKey(i), i >= from, whose home slot
// satisfies want, and its i.
func keyHomedAt(st *Store, from int, want func(home int) bool) (int, []byte) {
	for i := from; ; i++ {
		if k := userKey(i); want(st.home(fragmentOf(k))) {
			return i, k
		}
	}
}

// TestDirectoryConflicts: point reads conflict with the writers of their own
// keys through the directory slots they load, and with nothing else there.
// Each case builds a fresh store, whose directory starts empty.
func TestDirectoryConflicts(t *testing.T) {
	value := bytes.Repeat([]byte("v"), 64)
	fresh := func() (*rhtm.System, *Store, rhtm.Tx, int) {
		s := newSys(1 << 16)
		st := New(s, Options{ArenaWords: 1 << 12})
		return s, st, containers.SetupTx(s), s.Internal().Mem.Config().WordsPerLine
	}

	// The key's home is a line's last slot, so an insert that wrote past the
	// empty slot its probe ended at would store the next line, which the
	// absent-key read never loaded.
	t.Run("absent key then its insert", func(t *testing.T) {
		s, st, _, line := fresh()
		_, k := keyHomedAt(st, 0, func(h int) bool { return h%line == line-1 })
		var found bool
		runs := runsUnder(t, s, func(tx rhtm.Tx) error {
			_, found = st.Get(tx, k)
			return nil
		}, func(tx rhtm.Tx) error { return st.Put(tx, k, value) })
		if runs < 2 || !found {
			t.Errorf("a Get of absent %s ran %d times under its insert, the last finding it: %v; want a re-run that finds it",
				k, runs, found)
		}
	})

	// Two keys share a home on a line's last slot: deleting the first moves
	// the second back across the line boundary, into the slot the reader's
	// probe passed on its way.
	t.Run("present key then a delete shifting its slot", func(t *testing.T) {
		s, st, setup, line := fresh()
		iy, y := keyHomedAt(st, 0, func(h int) bool { return h%line == line-1 })
		home := st.home(fragmentOf(y))
		_, x := keyHomedAt(st, iy+1, func(h int) bool { return h == home })
		for _, k := range [][]byte{y, x} {
			if err := st.Put(setup, k, value); err != nil {
				t.Fatal(err)
			}
		}
		if got := slotOf(t, st, x); got != home+1 {
			t.Fatalf("%s at slot %d, want %d behind %s", x, got, home+1, y)
		}
		var found bool
		runs := runsUnder(t, s, func(tx rhtm.Tx) error {
			_, found = st.Get(tx, x)
			return nil
		}, func(tx rhtm.Tx) error {
			if !del(st, tx, y) {
				return fmt.Errorf("%s missing", y)
			}
			return nil
		})
		if runs < 2 || !found {
			t.Errorf("a Get of %s ran %d times under the delete of %s, the last finding it: %v; want a re-run that finds it",
				x, runs, y, found)
		}
		if got := slotOf(t, st, x); got != home {
			t.Errorf("after the delete %s sits at slot %d, want its home %d", x, got, home)
		}
	})

	// The overwritten key's slot is next to the reader's, on its line; an
	// overwrite stores the record and its value, never the directory.
	t.Run("overwrite of a line neighbour", func(t *testing.T) {
		s, st, setup, line := fresh()
		ia, a := keyHomedAt(st, 0, func(h int) bool { return h%line == 0 })
		home := st.home(fragmentOf(a))
		_, b := keyHomedAt(st, ia+1, func(h int) bool { return h == home+1 })
		for _, k := range [][]byte{a, b} {
			if err := st.Put(setup, k, value); err != nil {
				t.Fatal(err)
			}
		}
		mem := s.Internal().Mem
		if mem.LineOf(st.dir+rhtm.Addr(slotOf(t, st, a))) != mem.LineOf(st.dir+rhtm.Addr(slotOf(t, st, b))) {
			t.Fatalf("the slots of %s and %s are on different lines", a, b)
		}
		runs := runsUnder(t, s, func(tx rhtm.Tx) error {
			if _, ok := st.Get(tx, a); !ok {
				return fmt.Errorf("%s missing", a)
			}
			return nil
		}, func(tx rhtm.Tx) error { return st.Put(tx, b, bytes.Repeat([]byte("w"), 64)) })
		if runs != 1 {
			t.Errorf("a Get of %s ran %d times under an overwrite of %s, want once", a, runs, b)
		}
	})
}

// TestDirectoryChurnAgainstModel runs inserts, deletes and re-inserts of a
// few hundred short keys on a small arena against a set: the population
// swings between about half and three quarters of the directory, so runs
// wrap the table's end and backward shifts cross it. Every answer must be the
// model's, and Validate — which checks the directory against the tree —
// must hold after every write.
func TestDirectoryChurnAgainstModel(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 11})
	tx := containers.SetupTx(s)
	rng := rand.New(rand.NewSource(3))
	// A 7-byte key and an empty value take the smallest footprint, nine
	// words, so the population may reach (arena - directory) / 9.
	capacity := ((1 << 11) - st.slots) / minLiveWords
	model := map[string]bool{}
	wrapped, crossed := 0, 0
	for op := 0; op < 20000; op++ {
		k := []byte(fmt.Sprintf("k%06d", rng.Intn(400)))
		grow := len(model) < capacity/2 || len(model) < capacity-4 && rng.Intn(2) == 0
		switch r := rng.Intn(4); {
		case r == 0:
			if got, ok := st.Get(tx, k); ok != model[string(k)] || ok && got == nil {
				t.Fatalf("op %d: Get(%s) = %q, %v; model %v", op, k, got, ok, model[string(k)])
			}
			continue
		case grow:
			if err := st.Put(tx, k, nil); err != nil {
				t.Fatalf("op %d: Put(%s) at %d of %d keys: %v", op, k, len(model), capacity, err)
			}
			model[string(k)] = true
		default:
			first := tx.Load(st.dir)
			if got := del(st, tx, k); got != model[string(k)] {
				t.Fatalf("op %d: Delete(%s) found %v, model %v", op, k, got, model[string(k)])
			}
			delete(model, string(k))
			if first != 0 && tx.Load(st.dir+rhtm.Addr(st.slots-1)) == first {
				crossed++ // the shift moved slot 0's entry back across the end
			}
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if w := tx.Load(st.dir); w != 0 && st.home(w>>locLenShift) != 0 {
			wrapped++ // slot 0 holds an entry whose run began before the end
		}
	}
	if got := st.Len(tx); got != len(model) {
		t.Fatalf("Len = %d, model holds %d", got, len(model))
	}
	if wrapped == 0 || crossed == 0 {
		t.Errorf("runs wrapped the directory's end after %d writes, and %d deletes shifted an entry back across it: want both", wrapped, crossed)
	}
	t.Logf("%d slots, capacity %d keys: slot 0 held a wrapped entry after %d writes, %d deletes shifted across the end",
		st.slots, capacity, wrapped, crossed)
}
