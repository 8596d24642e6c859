package core

import (
	"testing"

	"rhtm/internal/engine"
	"rhtm/internal/memsim"
	"rhtm/internal/sys"
)

// TestFastWriteVersionOncePerStripe: a fast-path body that stores runs of
// words in k stripes stores each stripe's version once per attempt, and
// every attempt does so afresh. Injected aborts make transactions retry;
// the body writes its runs forward on even attempts and backward on odd
// ones, so an attempt starts on the stripe the previous one ended on. A
// filter that outlived its attempt would skip that stripe's version.
func TestFastWriteVersionOncePerStripe(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	opts := DefaultOptions()
	opts.Mode = ModeFastOnly
	opts.InjectAbortPercent = 50
	e := New(s, opts)
	// 3 runs of 5 words, each run inside its own stripe.
	base := s.Heap.MustAlloc(24)
	var words []memsim.Addr
	stripes := map[int]bool{}
	for r := memsim.Addr(0); r < 3; r++ {
		for i := memsim.Addr(0); i < 5; i++ {
			a := base + 8*r + i
			words = append(words, a)
			stripes[s.StripeOf(a)] = true
		}
	}
	k := uint64(len(stripes))
	if k != 3 {
		t.Fatalf("words span %d stripes, want 3", k)
	}
	th := e.NewThread()
	attempts := 0
	body := func(tx engine.Tx) error {
		attempts++
		for i := range words {
			j := i
			if attempts%2 == 0 {
				j = len(words) - 1 - i
			}
			tx.Store(words[j], uint64(100*attempts+j))
		}
		return nil
	}
	var retried uint64
	for txn := 0; txn < 20; txn++ {
		for _, a := range words {
			s.Mem.Store(s.VersionAddr(a), sys.PackVersion(0))
		}
		before := e.Snapshot()
		if err := th.Atomic(body); err != nil {
			t.Fatal(err)
		}
		st := e.Snapshot()
		commits := st.FastCommits - before.FastCommits
		aborts := st.FastAborts - before.FastAborts
		injected := st.FastAbortsByReason[memsim.AbortInjected] - before.FastAbortsByReason[memsim.AbortInjected]
		if commits != 1 || aborts != injected {
			t.Fatalf("txn %d: %d fast commits, %d aborts (%d injected); want 1 commit, injected aborts only", txn, commits, aborts, injected)
		}
		retried += aborts
		// Every attempt ran the whole body before its commit or injected abort.
		if got, want := st.MetadataWrites-before.MetadataWrites, k*(commits+aborts); got != want {
			t.Fatalf("txn %d: %d version stores over %d attempts, want %d (k=%d per attempt)", txn, got, commits+aborts, want, k)
		}
		for _, a := range words {
			w := s.Mem.Load(s.VersionAddr(a))
			if sys.IsLocked(w) || sys.UnpackVersion(w) != s.Clock.Read()+1 {
				t.Fatalf("txn %d: stripe %d carries %#x, want version clock+1 = %d", txn, s.StripeOf(a), w, s.Clock.Read()+1)
			}
		}
	}
	if retried == 0 {
		t.Fatal("no attempt was retried: the test exercised no retry")
	}
}

// TestSlowReaderSeesRetriedFastWriter: a slow-path transaction reads word 1
// of a stripe; before it commits, a fast-path writer stores words 0 and 1
// of that stripe and commits on a retried attempt. The writer's version
// store must reach the stripe, so the reader's commit-time validation
// refuses its stale snapshot and the transaction re-runs on the new value.
func TestSlowReaderSeesRetriedFastWriter(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	opts := DefaultOptions()
	opts.Mode = ModeFastOnly
	opts.InjectAbortPercent = 90
	e := New(s, opts)
	line := s.Heap.MustAlloc(8)
	w0, w1 := line, line+1
	if s.StripeOf(w0) != s.StripeOf(w1) {
		t.Fatal("words 0 and 1 in different stripes")
	}
	out := s.Heap.MustAlloc(8)
	s.Mem.Store(w1, 1)

	reader, writer := e.NewThread(), e.NewThread()
	slowRuns := 0
	if err := reader.Atomic(func(tx engine.Tx) error {
		tx.Unsupported() // persistent: the reader runs on the slow path
		v := tx.Load(w1)
		slowRuns++
		if slowRuns == 1 {
			if err := writer.Atomic(func(tx engine.Tx) error {
				tx.Store(w0, 7)
				tx.Store(w1, 8)
				return nil
			}); err != nil {
				return err
			}
		}
		tx.Store(out, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if st.FastAbortsByReason[memsim.AbortInjected] == 0 || st.FastCommits != 1 {
		t.Fatalf("stats = %v: want the writer to commit in hardware after an injected abort", st)
	}
	if st.SlowCommits != 1 || st.SlowAborts == 0 {
		t.Fatalf("stats = %v: want the reader's first commit refused, then one slow commit", st)
	}
	if got := s.Mem.Load(out); got != 8 {
		t.Fatalf("reader committed %d, a value from before the writer's commit; want 8", got)
	}
}
