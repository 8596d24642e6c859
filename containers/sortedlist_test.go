package containers

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"rhtm"
)

func TestSortedListInsertOrder(t *testing.T) {
	s := newSys(1 << 14)
	l := NewSortedList(s)
	l.Populate([]uint64{5, 1, 9, 3, 7})
	got := listKeys(l)
	want := []uint64{1, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

// listKeys walks the list with raw reads and returns its keys in order.
func listKeys(l *SortedList) []uint64 {
	var out []uint64
	for n := l.sys.Peek(l.head); n != uint64(rhtm.NilAddr); n = l.sys.Peek(rhtm.Addr(n) + slNext) {
		out = append(out, l.sys.Peek(rhtm.Addr(n)+slKey))
	}
	return out
}

func TestSortedListOracle(t *testing.T) {
	s := newSys(1 << 18)
	l := NewSortedList(s)
	tx := SetupTx(s)
	oracle := map[uint64]bool{}
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 2000; op++ {
		key := uint64(rng.Intn(200) + 1)
		if rng.Intn(2) == 0 {
			if fresh := l.Insert(tx, key, rng.Uint64()); fresh == oracle[key] {
				t.Fatalf("op %d: Insert(%d) fresh=%v contradicts oracle", op, key, fresh)
			}
			oracle[key] = true
		} else if got := l.ConstSearch(tx, key); got != oracle[key] {
			t.Fatalf("op %d: ConstSearch(%d)=%v, oracle %v", op, key, got, oracle[key])
		}
	}
	keys := listKeys(l)
	if len(keys) != len(oracle) {
		t.Fatalf("list size %d, oracle %d", len(keys), len(oracle))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("list not sorted: %v", keys)
	}
}

func TestSortedListConstOps(t *testing.T) {
	s := newSys(1 << 14)
	l := NewSortedList(s)
	l.Populate([]uint64{2, 4, 6})
	tx := SetupTx(s)
	if !l.ConstSearch(tx, 4) || l.ConstSearch(tx, 5) {
		t.Fatal("ConstSearch wrong")
	}
	if !l.ConstUpdate(tx, 6, 9) || l.ConstUpdate(tx, 3, 9) {
		t.Fatal("ConstUpdate wrong")
	}
	got := listKeys(l)
	if len(got) != 3 {
		t.Fatalf("Const ops changed list: %v", got)
	}
}

func TestSortedListZeroKeyPanics(t *testing.T) {
	s := newSys(1 << 12)
	l := NewSortedList(s)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(0) did not panic")
		}
	}()
	l.Insert(SetupTx(s), 0, 0)
}

func TestSortedListConcurrentSharedPrefix(t *testing.T) {
	// Every scan walks the same prefix — the paper's high-contention case.
	s := newSys(1 << 18)
	l := NewSortedList(s)
	keys := make([]uint64, 0, 100)
	for i := 1; i <= 100; i++ {
		keys = append(keys, uint64(i))
	}
	l.Populate(keys)
	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		th := eng.NewThread()
		rng := rand.New(rand.NewSource(int64(w + 5)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := uint64(rng.Intn(100) + 1)
				err := th.Atomic(func(tx rhtm.Tx) error {
					if rng.Intn(20) == 0 {
						l.ConstUpdate(tx, key, rng.Uint64())
					} else {
						l.ConstSearch(tx, key)
					}
					return nil
				})
				if err != nil {
					t.Errorf("op: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(listKeys(l)); got != 100 {
		t.Fatalf("list size changed to %d", got)
	}
}
