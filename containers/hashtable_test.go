package containers

import (
	"math/rand"
	"sync"
	"testing"

	"rhtm"
)

func TestHashTableOracle(t *testing.T) {
	s := newSys(1 << 18)
	ht := NewHashTable(s, 64)
	tx := SetupTx(s)
	oracle := map[uint64]bool{}
	rng := rand.New(rand.NewSource(9))
	for op := 0; op < 3000; op++ {
		key := uint64(rng.Intn(400) + 1)
		if rng.Intn(2) == 0 {
			if fresh := ht.Insert(tx, key, rng.Uint64()); fresh == oracle[key] {
				t.Fatalf("op %d: Insert(%d) fresh=%v contradicts oracle", op, key, fresh)
			}
			oracle[key] = true
		} else if got := ht.ConstQuery(tx, key); got != oracle[key] {
			t.Fatalf("op %d: ConstQuery(%d)=%v, oracle %v", op, key, got, oracle[key])
		}
	}
}

// requireHashKeys fails unless exactly keys 1..n are in the table.
func requireHashKeys(t *testing.T, ht *HashTable, tx rhtm.Tx, n uint64) {
	t.Helper()
	for k := uint64(1); k <= n+1; k++ {
		if got := ht.ConstQuery(tx, k); got != (k <= n) {
			t.Fatalf("ConstQuery(%d) = %v with keys 1..%d", k, got, n)
		}
	}
}

func TestHashTableConstOps(t *testing.T) {
	s := newSys(1 << 16)
	ht := NewHashTable(s, 16)
	ht.Populate([]uint64{1, 2, 3, 4, 5})
	tx := SetupTx(s)
	for _, k := range []uint64{1, 3, 5} {
		if !ht.ConstUpdate(tx, k, 99) {
			t.Fatalf("ConstUpdate(%d) = false", k)
		}
	}
	if ht.ConstUpdate(tx, 77, 1) {
		t.Fatal("ConstUpdate(77) = true for absent key")
	}
	requireHashKeys(t, ht, tx, 5)
}

func TestHashTableChaining(t *testing.T) {
	// A single bucket forces every key into one chain; all operations must
	// still behave.
	s := newSys(1 << 14)
	ht := NewHashTable(s, 1)
	tx := SetupTx(s)
	for k := uint64(1); k <= 20; k++ {
		if !ht.Insert(tx, k, k*2) {
			t.Fatalf("Insert(%d) reported duplicate", k)
		}
	}
	for _, k := range []uint64{10, 20, 1} {
		if ht.Insert(tx, k, k) {
			t.Fatalf("second Insert(%d) reported a fresh key", k)
		}
	}
	requireHashKeys(t, ht, tx, 20)
}

func TestHashTableZeroBucketsPanics(t *testing.T) {
	s := newSys(1 << 12)
	defer func() {
		if recover() == nil {
			t.Fatal("NewHashTable(0) did not panic")
		}
	}()
	NewHashTable(s, 0)
}

func TestHashTableConcurrent(t *testing.T) {
	s := newSys(1 << 20)
	ht := NewHashTable(s, 256)
	keys := make([]uint64, 0, 512)
	for i := 1; i <= 512; i++ {
		keys = append(keys, uint64(i))
	}
	ht.Populate(keys)
	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())
	const workers, ops = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := eng.NewThread()
		rng := rand.New(rand.NewSource(int64(w + 1)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := uint64(rng.Intn(512) + 1)
				err := th.Atomic(func(tx rhtm.Tx) error {
					if rng.Intn(5) == 0 {
						ht.ConstUpdate(tx, key, rng.Uint64())
					} else {
						ht.ConstQuery(tx, key)
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
	requireHashKeys(t, ht, SetupTx(s), 512)
}
