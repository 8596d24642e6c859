package norec

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
	return MustNew(s, Options{}), s
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, "HybridNoRec", factory, enginetest.Capabilities{Unsupported: true})
}

func TestName(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(256))
	if MustNew(s, Options{}).Name() != "Hybrid NoRec" {
		t.Fatal("wrong name")
	}
}

func TestHWWriteCommitBumpsCounter(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := MustNew(s, Options{})
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	before := s.Mem.Load(e.seq)
	if err := th.Atomic(func(tx engine.Tx) error {
		tx.Store(a, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	after := s.Mem.Load(e.seq)
	if after != before+2 {
		t.Fatalf("seq = %d -> %d, want +2 on hardware write commit", before, after)
	}
	if after&1 != 0 {
		t.Fatal("seq left odd")
	}
}

func TestHWReadOnlyCommitLeavesCounter(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := MustNew(s, Options{})
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	before := s.Mem.Load(e.seq)
	if err := th.Atomic(func(tx engine.Tx) error {
		_ = tx.Load(a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Mem.Load(e.seq); got != before {
		t.Fatalf("read-only hardware commit moved seq: %d -> %d", before, got)
	}
}

func TestSWCommitViaUnsupported(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := MustNew(s, Options{})
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		tx.Unsupported()
		tx.Store(a, 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if st.SlowCommits != 1 {
		t.Fatalf("stats = %v, want one software commit", st)
	}
	if got := s.Mem.Load(a); got != 2 {
		t.Fatalf("value = %d, want 2", got)
	}
	if got := s.Mem.Load(e.seq); got&1 != 0 {
		t.Fatal("seq left odd after software commit")
	}
}

func TestNoStripeMetadataTouched(t *testing.T) {
	// NoRec's defining property: no per-location metadata. The stripe
	// version array must stay all-zero whatever the engine does.
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := MustNew(s, Options{})
	a := s.Heap.MustAlloc(4)
	th := e.NewThread()
	for i := 0; i < 5; i++ {
		if err := th.Atomic(func(tx engine.Tx) error {
			if i%2 == 0 {
				tx.Unsupported() // exercise the software path too
			}
			tx.Store(a+memsim.Addr(i%4), uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < s.Versions.Size; i++ {
		if v := s.Mem.Load(s.Versions.Addr(i)); v != 0 {
			t.Fatalf("stripe version %d = %d, want 0 (NoRec must not touch it)", i, v)
		}
	}
}

func TestSWValueValidationAllowsSilentRestore(t *testing.T) {
	// Value-based validation: if memory returns to the logged value before
	// commit, the software transaction may commit (ABA is benign in NoRec).
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := MustNew(s, Options{})
	a := s.Heap.MustAlloc(1)
	b := s.Heap.MustAlloc(1)
	s.Mem.Poke(a, 7)
	th := e.NewThread().(*Thread)
	err := th.Atomic(func(tx engine.Tx) error {
		tx.Unsupported() // software path
		v := tx.Load(a)
		// Concurrent writer commits a change and a restoration via the
		// hardware path of another thread.
		other := e.NewThread()
		for _, val := range []uint64{8, 7} {
			if err := other.Atomic(func(tx2 engine.Tx) error {
				tx2.Store(a, val)
				return nil
			}); err != nil {
				return err
			}
		}
		tx.Store(b, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Mem.Load(b); got != 7 {
		t.Fatalf("b = %d, want 7", got)
	}
}

// TestRemoteAbortWindow: the prologue finds a software commit in flight
// (counter odd) on a hardware transaction a remote agent aborted during
// that very load.
func TestRemoteAbortWindow(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := MustNew(s, Options{})
	th := e.NewThread().(*Thread)
	th.hw = true
	s.Mem.Store(e.seq, 1)
	enginetest.CheckRemoteAbortWindow(t, s.Mem, &th.HWWorker, (*norecTx)(th), e.seq,
		func(engine.Tx) error { return nil })
}

// TestSlowPathScratch: a thread keeps no more than scratch.Bound of the
// read log and write set one large software transaction grew.
func TestSlowPathScratch(t *testing.T) { enginetest.CheckSlowPathScratch(t, factory) }
