package containers

import (
	"math/rand"
	"sync"
	"testing"

	"rhtm"
)

func TestRandomArrayOpLengthAndWrites(t *testing.T) {
	s := newSys(1 << 16)
	arr := NewRandomArray(s, 1024)
	arr.Fill(7)
	tx := SetupTx(s)
	rng := rand.New(rand.NewSource(2))

	// 0% writes: memory unchanged, XOR of an even number of 7s is 0,
	// odd number is 7.
	acc := arr.Op(tx, rng, 40, 0)
	if acc != 0 && acc != 7 {
		t.Fatalf("read-only Op acc = %d, want 0 or 7", acc)
	}
	for i := 0; i < int(arr.size); i++ {
		if s.Peek(arr.base+rhtm.Addr(i)) != 7 {
			t.Fatal("read-only Op modified the array")
		}
	}

	// 100% writes: some cells must change.
	arr.Op(tx, rng, 40, 100)
	changed := 0
	for i := 0; i < int(arr.size); i++ {
		if s.Peek(arr.base+rhtm.Addr(i)) != 7 {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("write-only Op changed nothing")
	}
	if changed > 40 {
		t.Fatalf("write-only Op of length 40 changed %d cells", changed)
	}
}

func TestRandomArraySizeValidation(t *testing.T) {
	s := newSys(1 << 12)
	defer func() {
		if recover() == nil {
			t.Fatal("NewRandomArray(0) did not panic")
		}
	}()
	NewRandomArray(s, 0)
}

func TestRandomArrayConcurrentTransactions(t *testing.T) {
	s := newSys(1 << 16)
	arr := NewRandomArray(s, 512)
	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		th := eng.NewThread()
		rng := rand.New(rand.NewSource(int64(w + 31)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				err := th.Atomic(func(tx rhtm.Tx) error {
					arr.Op(tx, rng, 20, 50)
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
	if eng.Snapshot().Commits() != 4*60 {
		t.Fatalf("commits = %d, want %d", eng.Snapshot().Commits(), 4*60)
	}
}
