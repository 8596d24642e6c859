package htm

import (
	"sync"
	"testing"

	"rhtm/internal/memsim"
)

// memConfig is a memory of the given size with 64-byte lines,
// requester-wins conflicts and TSX-like snoop behaviour.
func memConfig(words int) memsim.Config {
	return memsim.Config{Words: words, WordsPerLine: 8, Policy: memsim.RequesterWins, NonTxLoadAbortsWriters: true}
}

func newMem(words int) *memsim.Memory { return memsim.New(memConfig(words)) }

func TestCommitPublishesWrites(t *testing.T) {
	m := newMem(1024)
	tx := NewTxn(m, DefaultConfig())
	tx.Begin()
	if !tx.Write(8, 1) || !tx.Write(64, 2) {
		t.Fatal("Write failed")
	}
	if m.Peek(8) != 0 || m.Peek(64) != 0 {
		t.Fatal("speculative writes visible before commit")
	}
	if !tx.Commit() {
		t.Fatalf("Commit failed: %v", tx.AbortReason())
	}
	if m.Load(8) != 1 || m.Load(64) != 2 {
		t.Fatal("writes not published at commit")
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	m := newMem(1024)
	tx := NewTxn(m, DefaultConfig())
	m.Store(8, 10)
	tx.Begin()
	if v, ok := tx.Read(8); !ok || v != 10 {
		t.Fatalf("Read = %d,%v, want 10,true", v, ok)
	}
	tx.Write(8, 20)
	if v, ok := tx.Read(8); !ok || v != 20 {
		t.Fatalf("Read after own write = %d,%v, want 20,true", v, ok)
	}
	tx.Write(8, 30)
	if !tx.Commit() {
		t.Fatal("Commit failed")
	}
	if m.Load(8) != 30 {
		t.Fatalf("final value = %d, want 30 (last write wins)", m.Load(8))
	}
}

func TestPlainStoreAbortsTransaction(t *testing.T) {
	m := newMem(1024)
	tx := NewTxn(m, DefaultConfig())
	tx.Begin()
	if _, ok := tx.Read(8); !ok {
		t.Fatal("Read failed")
	}
	m.Store(8, 99)
	if _, ok := tx.Read(16); ok {
		t.Fatal("Read succeeded in aborted transaction")
	}
	tx.Fini()
	if r := tx.AbortReason(); r != memsim.AbortNonTxConflict {
		t.Fatalf("reason = %v, want nontx-conflict", r)
	}
	if tx.Commit() {
		t.Fatal("Commit succeeded after abort")
	}
}

func TestConflictBetweenTransactions(t *testing.T) {
	m := newMem(1024)
	a := NewTxn(m, DefaultConfig())
	b := NewTxn(m, DefaultConfig())
	a.Begin()
	b.Begin()
	if _, ok := a.Read(8); !ok {
		t.Fatal("a.Read failed")
	}
	// b writes the line a read: requester wins, a dies.
	if !b.Write(8, 5) {
		t.Fatal("b.Write failed")
	}
	if a.Running() {
		t.Fatal("a still running after conflicting write")
	}
	if !b.Commit() {
		t.Fatal("b.Commit failed")
	}
	a.Fini()
	if r := a.AbortReason(); r != memsim.AbortConflict {
		t.Fatalf("a reason = %v, want conflict", r)
	}
}

func TestCapacityAbortOnFootprint(t *testing.T) {
	m := newMem(1 << 14)
	cfg := Config{MaxFootprintLines: 4, MaxWriteLines: 4}
	tx := NewTxn(m, cfg)
	tx.Begin()
	lineWords := memsim.Addr(m.Config().WordsPerLine)
	for i := memsim.Addr(0); i < 4; i++ {
		if _, ok := tx.Read(8 + i*lineWords); !ok {
			t.Fatalf("Read %d failed early", i)
		}
	}
	if _, ok := tx.Read(8 + 4*lineWords); ok {
		t.Fatal("fifth line read should exceed capacity")
	}
	tx.Fini()
	r := tx.AbortReason()
	if r != memsim.AbortCapacity {
		t.Fatalf("reason = %v, want capacity", r)
	}
	if !r.Persistent() {
		t.Fatal("capacity abort must be persistent")
	}
}

func TestCapacityAbortOnWriteSet(t *testing.T) {
	m := newMem(1 << 14)
	cfg := Config{MaxFootprintLines: 64, MaxWriteLines: 2}
	tx := NewTxn(m, cfg)
	tx.Begin()
	lineWords := memsim.Addr(m.Config().WordsPerLine)
	if !tx.Write(8, 1) || !tx.Write(8+lineWords, 2) {
		t.Fatal("writes within capacity failed")
	}
	if tx.Write(8+2*lineWords, 3) {
		t.Fatal("third write line should exceed write capacity")
	}
	tx.Fini()
	if r := tx.AbortReason(); r != memsim.AbortCapacity {
		t.Fatalf("reason = %v, want capacity", r)
	}
}

func TestRepeatedAccessSameLineNoCapacityGrowth(t *testing.T) {
	m := newMem(1024)
	cfg := Config{MaxFootprintLines: 1, MaxWriteLines: 1}
	tx := NewTxn(m, cfg)
	tx.Begin()
	for i := 0; i < 10; i++ {
		if _, ok := tx.Read(8); !ok {
			t.Fatal("repeated Read failed")
		}
		if !tx.Write(9, uint64(i)) { // same line as 8
			t.Fatal("repeated Write failed")
		}
	}
	if len(tx.footprint) != 1 || tx.WriteSetLines() != 1 {
		t.Fatalf("footprint=%d writeLines=%d, want 1,1",
			len(tx.footprint), tx.WriteSetLines())
	}
	if !tx.Commit() {
		t.Fatal("Commit failed")
	}
}

func TestUnsupportedInstructionAborts(t *testing.T) {
	m := newMem(1024)
	tx := NewTxn(m, DefaultConfig())
	tx.Begin()
	tx.Unsupported()
	if tx.Running() {
		t.Fatal("running after Unsupported")
	}
	if r := tx.AbortReason(); r != memsim.AbortUnsupported {
		t.Fatalf("reason = %v, want unsupported", r)
	}
	if tx.Commit() {
		t.Fatal("Commit succeeded after Unsupported")
	}
}

func TestExplicitAbort(t *testing.T) {
	m := newMem(1024)
	tx := NewTxn(m, DefaultConfig())
	tx.Begin()
	tx.Write(8, 1)
	tx.Abort(memsim.AbortExplicit)
	if tx.Commit() {
		t.Fatal("Commit succeeded after explicit abort")
	}
	if m.Load(8) != 0 {
		t.Fatal("aborted write reached memory")
	}
}

func TestReuseAfterAbortLeavesNoStaleMonitors(t *testing.T) {
	m := newMem(1024)
	tx := NewTxn(m, DefaultConfig())
	tx.Begin()
	tx.Read(8)
	tx.Abort(memsim.AbortExplicit)
	if n := m.MonitorCount(8); n != 0 {
		t.Fatalf("stale monitors after abort: %d", n)
	}
	// Reuse: a plain store to the old line must not kill the new attempt.
	tx.Begin()
	if _, ok := tx.Read(128); !ok {
		t.Fatal("Read failed after reuse")
	}
	m.Store(8, 1) // old line, not in new footprint
	if !tx.Running() {
		t.Fatal("new incarnation aborted via stale registration")
	}
	if !tx.Commit() {
		t.Fatal("Commit failed after reuse")
	}
}

func TestBeginWhileRunningPanics(t *testing.T) {
	m := newMem(1024)
	tx := NewTxn(m, DefaultConfig())
	tx.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("Begin while running did not panic")
		}
	}()
	tx.Begin()
}

func TestNewTxnValidatesConfig(t *testing.T) {
	m := newMem(64)
	defer func() {
		if recover() == nil {
			t.Fatal("NewTxn with zero limits did not panic")
		}
	}()
	NewTxn(m, Config{})
}

// TestAtomicIncrementsUnderContention: N workers transactionally increment a
// shared counter; the final value must equal the number of successful
// commits. This is the fundamental isolation property.
func TestAtomicIncrementsUnderContention(t *testing.T) {
	m := newMem(1024)
	const workers, attempts = 8, 300
	var mu sync.Mutex
	totalCommits := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := NewTxn(m, DefaultConfig())
			commits := 0
			for i := 0; i < attempts; i++ {
				tx.Begin()
				v, ok := tx.Read(8)
				if ok {
					ok = tx.Write(8, v+1)
				}
				if ok && tx.Commit() {
					commits++
				} else {
					tx.Fini()
				}
			}
			mu.Lock()
			totalCommits += commits
			mu.Unlock()
		}()
	}
	wg.Wait()
	if got := m.Load(8); got != uint64(totalCommits) {
		t.Fatalf("counter = %d, want %d (commits)", got, totalCommits)
	}
	if totalCommits == 0 {
		t.Fatal("no transaction ever committed")
	}
}

// TestSnapshotConsistency: writers keep two distant words equal; readers that
// commit must never have seen differing values.
func TestSnapshotConsistency(t *testing.T) {
	m := newMem(4096)
	a, b := memsim.Addr(8), memsim.Addr(2048)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	violations := make(chan [2]uint64, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := NewTxn(m, DefaultConfig())
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx.Begin()
				va, ok := tx.Read(a)
				if !ok {
					tx.Fini()
					continue
				}
				vb, ok := tx.Read(b)
				if !ok {
					tx.Fini()
					continue
				}
				if tx.Commit() && va != vb {
					select {
					case violations <- [2]uint64{va, vb}:
					default:
					}
				}
			}
		}()
	}
	wtx := NewTxn(m, DefaultConfig())
	for i := uint64(1); i <= 500; i++ {
		wtx.Begin()
		if wtx.Write(a, i) && wtx.Write(b, i) {
			if !wtx.Commit() {
				wtx.Fini()
			}
		} else {
			wtx.Fini()
		}
	}
	close(stop)
	wg.Wait()
	select {
	case v := <-violations:
		t.Fatalf("committed reader saw torn snapshot: %d != %d", v[0], v[1])
	default:
	}
}

// TestBeginParksRemotelyAbortedAttempt: an owner that ends an attempt with
// Abort after a remote agent already aborted it (Abort is then a no-op) and
// goes straight to Begin must not carry the old monitors into the new
// attempt, where they would look live again.
func TestBeginParksRemotelyAbortedAttempt(t *testing.T) {
	m := newMem(1024)
	tx := NewTxn(m, DefaultConfig())
	tx.Begin()
	if _, ok := tx.Read(8); !ok {
		t.Fatal("Read failed")
	}
	if !tx.TryAbort(memsim.AbortConflict) { // the remote agent
		t.Fatal("TryAbort on a running transaction failed")
	}
	tx.Abort(memsim.AbortExplicit) // the owner, too late
	if r := tx.AbortReason(); r != memsim.AbortConflict {
		t.Fatalf("abort reason %v, want the remote conflict", r)
	}
	tx.Begin()
	if n := m.MonitorCount(8); n != 0 {
		t.Fatalf("MonitorCount(8) = %d after Begin, want 0: the aborted attempt's monitor leaked", n)
	}
	m.Store(8, 1) // a line the new attempt never touched
	if !tx.Running() {
		t.Fatalf("new attempt aborted (%v) by a store to a line only the old one read", tx.AbortReason())
	}
	if !tx.Commit() {
		t.Fatalf("Commit failed: %v", tx.AbortReason())
	}
}
