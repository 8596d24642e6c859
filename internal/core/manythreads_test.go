package core

import (
	"sync"
	"testing"

	"rhtm/internal/engine"
	"rhtm/internal/htm"
	"rhtm/internal/memsim"
	"rhtm/internal/sys"
)

// TestManyThreadsReadMasks exercises the paper's §4.1 extension: with more
// than 64 configured threads, each stripe carries multiple read-mask words
// and thread k uses bit k%64 of word k/64. 100 threads run RH2 slow-path
// commits (forced by a tiny HTM) concurrently with fast-path increments; the
// counter invariant and full mask reset prove the multi-word visibility
// protocol works.
func TestManyThreadsReadMasks(t *testing.T) {
	cfg := sys.DefaultConfig(1 << 12)
	cfg.MaxThreads = 128
	cfg.HTM = htm.Config{MaxFootprintLines: 6, MaxWriteLines: 4}
	s := sys.MustNew(cfg)
	if s.MaskWords != 2 {
		t.Fatalf("MaskWords = %d, want 2 for 128 threads", s.MaskWords)
	}
	e := New(s, DefaultOptions())
	ctr := s.Heap.MustAlloc(1)
	// Words spread across stripes so slow commits carry multi-stripe read
	// sets (and therefore multi-stripe visibility).
	words := make([]memsim.Addr, 6)
	for i := range words {
		words[i] = s.Heap.MustAlloc(1)
		s.Heap.MustAlloc(15)
	}

	const workers, iters = 100, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := e.NewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := th.Atomic(func(tx engine.Tx) error {
					// Read several stripes (a visible read set on the slow
					// path) and increment the counter.
					var sum uint64
					for _, a := range words {
						sum += tx.Load(a)
					}
					_ = sum
					tx.Store(ctr, tx.Load(ctr)+1)
					return nil
				})
				if err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Mem.Load(ctr); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	for i := 0; i < s.Masks.Size; i++ {
		if m := s.Mem.Load(s.Masks.Addr(i)); m != 0 {
			t.Fatalf("mask word %d = %d after quiescence, want 0", i, m)
		}
	}
}

// TestThreadLimitHonorsConfig verifies engines accept exactly MaxThreads
// workers.
func TestThreadLimitHonorsConfig(t *testing.T) {
	cfg := sys.DefaultConfig(256)
	cfg.MaxThreads = 70
	s := sys.MustNew(cfg)
	e := New(s, DefaultOptions())
	for i := 0; i < 70; i++ {
		e.NewThread()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("71st thread did not panic")
		}
	}()
	e.NewThread()
}
