package tl2

import (
	"testing"

	"rhtm/internal/engine"
	"rhtm/internal/enginetest"
	"rhtm/internal/memsim"
	"rhtm/internal/sys"
)

func factory(t *testing.T, cfg sys.Config) (engine.Engine, *sys.System) {
	t.Helper()
	s := sys.MustNew(cfg)
	return New(s), s
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, "TL2", factory, enginetest.Capabilities{Unsupported: true})
}

func TestName(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(256))
	if New(s).Name() != "TL2" {
		t.Fatal("wrong name")
	}
}

func TestReadOnlyCommitSkipsLocks(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := New(s)
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		_ = tx.Load(a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if st.ReadOnlyCommits != 1 || st.SlowCommits != 0 {
		t.Fatalf("stats = %+v, want 1 read-only commit", st)
	}
	// Version word untouched by a read-only commit.
	if got := s.Mem.Load(s.VersionAddr(a)); got != 0 {
		t.Fatalf("stripe version = %d after read-only tx, want 0", got)
	}
}

func TestCommitInstallsNewVersion(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := New(s)
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		tx.Store(a, 42)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	w := s.Mem.Load(s.VersionAddr(a))
	if sys.IsLocked(w) {
		t.Fatal("stripe left locked after commit")
	}
	if sys.UnpackVersion(w) == 0 {
		t.Fatal("stripe version not advanced by write commit")
	}
}

func TestReaderAbortsOnNewerVersion(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := New(s)
	a := s.Heap.MustAlloc(1)
	// Pretend another thread committed far in the future.
	s.Mem.Poke(s.VersionAddr(a), sys.PackVersion(100))
	th := e.NewThread().(*Thread)
	attempts := 0
	err := th.Atomic(func(tx engine.Tx) error {
		attempts++
		if attempts == 1 {
			// First attempt must abort on the stale read below; after the
			// retry the clock has advanced past 100 and the read succeeds.
			_ = tx.Load(a)
		}
		_ = tx.Load(a)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (version-based abort + retry)", attempts)
	}
	if e.Snapshot().SlowAborts == 0 {
		t.Fatal("no abort recorded")
	}
}

func TestReaderAbortsOnLockedStripe(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := New(s)
	a := s.Heap.MustAlloc(1)
	th := e.NewThread().(*Thread)
	attempts := 0
	err := th.Atomic(func(tx engine.Tx) error {
		attempts++
		if attempts == 1 {
			s.Mem.Poke(s.VersionAddr(a), sys.LockWord(7)) // someone else holds it
		} else {
			s.Mem.Poke(s.VersionAddr(a), sys.PackVersion(0)) // released
		}
		_ = tx.Load(a)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}

func TestFailedCommitRestoresVersions(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 12))
	e := New(s)
	a := s.Heap.MustAlloc(1)
	s.Heap.MustAlloc(64)
	b := s.Heap.MustAlloc(1)
	s.Mem.Poke(s.VersionAddr(a), sys.PackVersion(3))
	th := e.NewThread().(*Thread)
	attempts := 0
	err := th.Atomic(func(tx engine.Tx) error {
		attempts++
		tx.Store(a, 1)
		if attempts == 1 {
			// Invalidate the read set after it is built: read b, then bump
			// b's version so commit-time validation fails.
			_ = tx.Load(b)
			s.Mem.Poke(s.VersionAddr(b), sys.PackVersion(1<<40))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2", attempts)
	}
	final := s.Mem.Load(s.VersionAddr(a))
	if sys.IsLocked(final) {
		t.Fatal("failed commit left stripe a locked")
	}
	if s.Mem.Load(a) != 1 {
		t.Fatal("retried transaction's write missing")
	}
}

func TestThreadIDsAndLimit(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(256))
	e := New(s)
	for i := 0; i < s.MaxThreads(); i++ {
		e.NewThread()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("65th thread did not panic")
		}
	}()
	e.NewThread()
}

func TestStatsCountOps(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := New(s)
	a := s.Heap.MustAlloc(2)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		_ = tx.Load(a)
		tx.Store(a+memsim.Addr(1), 9)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("reads/writes = %d/%d, want 1/1", st.Reads, st.Writes)
	}
	if st.MetadataReads == 0 {
		t.Fatal("TL2 reads must touch metadata")
	}
}

// TestSlowPathScratch: a thread keeps no more than scratch.Bound of the
// sets one large transaction grew.
func TestSlowPathScratch(t *testing.T) { enginetest.CheckSlowPathScratch(t, factory) }
