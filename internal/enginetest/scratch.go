package enginetest

import (
	"runtime"
	"testing"

	"rhtm/internal/engine"
	"rhtm/internal/htm"
	"rhtm/internal/memsim"
	"rhtm/internal/scratch"
	"rhtm/internal/sys"
)

// bigTxnWords is how many words CheckSlowPathScratch's transaction reads
// and writes: its software sets run to megabytes.
const bigTxnWords = 100_000

// CheckSlowPathScratch runs one transaction that reads and writes
// bigTxnWords words on a fresh thread of the engine factory builds, and
// fails unless the thread keeps at most scratch.Bound bytes of host heap
// once Atomic has returned. The System's HTM is tiny: the transaction
// commits on the software path, and the hardware path's sets, which the
// HTM capacity bounds rather than this rule, stay at their initial size.
func CheckSlowPathScratch(t *testing.T, factory Factory) {
	t.Helper()
	cfg := sys.DefaultConfig(1 << 18)
	cfg.HTM = htm.Config{MaxFootprintLines: 4, MaxWriteLines: 2}
	eng, s := factory(t, cfg)
	base := s.Heap.MustAlloc(bigTxnWords)
	body := func(tx engine.Tx) error {
		for i := 0; i < bigTxnWords; i++ {
			a := base + memsim.Addr(i)
			tx.Store(a, tx.Load(a)+1)
		}
		return nil
	}
	// A first thread runs the body once, so that what the simulator builds
	// lazily on first touch exists before the measurement.
	if err := eng.NewThread().Atomic(body); err != nil {
		t.Fatal(err)
	}
	th := eng.NewThread()
	before := LiveHeap()
	if err := th.Atomic(body); err != nil {
		t.Fatal(err)
	}
	kept := int64(LiveHeap()) - int64(before)
	runtime.KeepAlive(th)
	if s.Mem.Peek(base) != 2 {
		t.Fatalf("word 0 reads %d after two increments", s.Mem.Peek(base))
	}
	t.Logf("a %d-word transaction left its thread %d bytes", bigTxnWords, kept)
	if kept > scratch.Bound {
		t.Errorf("a thread that ran one %d-word transaction keeps %d bytes, want at most %d", bigTxnWords, kept, scratch.Bound)
	}
}

// LiveHeap returns the bytes of live heap objects after two full
// collections: the second empties the sync.Pool victim caches the first
// left.
func LiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
