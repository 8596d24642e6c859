package hytm

import (
	"errors"
	"testing"

	"rhtm/internal/engine"
	"rhtm/internal/enginetest"
	"rhtm/internal/htm"
	"rhtm/internal/memsim"
	"rhtm/internal/sys"
)

func pureFactory(t *testing.T, cfg sys.Config) (engine.Engine, *sys.System) {
	t.Helper()
	s := sys.MustNew(cfg)
	return NewPureHTM(s, Options{}), s
}

func stdFactory(opts Options) enginetest.Factory {
	return func(t *testing.T, cfg sys.Config) (engine.Engine, *sys.System) {
		t.Helper()
		s := sys.MustNew(cfg)
		return NewStandard(s, opts), s
	}
}

func TestConformancePureHTM(t *testing.T) {
	enginetest.Run(t, "HTM", pureFactory, enginetest.Capabilities{Unsupported: false})
}

func TestConformanceStandardHyTM(t *testing.T) {
	enginetest.Run(t, "StdHyTM", stdFactory(Options{}),
		enginetest.Capabilities{Unsupported: true})
}

func TestConformanceStandardHyTMMixed(t *testing.T) {
	var opts Options
	opts.Mixed = true
	enginetest.Run(t, "StdHyTM-Mixed", stdFactory(opts),
		enginetest.Capabilities{Unsupported: true})
}

func TestNames(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(256))
	if NewPureHTM(s, Options{}).Name() != "HTM" {
		t.Fatal("PureHTM name wrong")
	}
	if NewStandard(s, Options{}).Name() != "Standard HyTM" {
		t.Fatal("StandardHyTM name wrong")
	}
}

func TestPureHTMFailsOnUnsupported(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := NewPureHTM(s, Options{})
	th := e.NewThread()
	err := th.Atomic(func(tx engine.Tx) error {
		tx.Unsupported()
		return nil
	})
	if !errors.Is(err, ErrHardwareOnly) {
		t.Fatalf("err = %v, want ErrHardwareOnly", err)
	}
}

func TestPureHTMFailsOnCapacity(t *testing.T) {
	cfg := sys.DefaultConfig(1 << 12)
	cfg.HTM = htm.Config{MaxFootprintLines: 2, MaxWriteLines: 2}
	s := sys.MustNew(cfg)
	e := NewPureHTM(s, Options{})
	addrs := make([]memsim.Addr, 6)
	for i := range addrs {
		addrs[i] = s.Heap.MustAlloc(1)
		s.Heap.MustAlloc(15)
	}
	th := e.NewThread()
	err := th.Atomic(func(tx engine.Tx) error {
		for _, a := range addrs {
			_ = tx.Load(a)
		}
		return nil
	})
	if !errors.Is(err, ErrHardwareOnly) {
		t.Fatalf("err = %v, want ErrHardwareOnly", err)
	}
}

func TestStandardHyTMFallsBackOnUnsupported(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := NewStandard(s, Options{})
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		tx.Unsupported()
		tx.Store(a, 3)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if st.SlowCommits != 1 {
		t.Fatalf("stats = %v, want one TL2 slow commit", st)
	}
	if got := s.Mem.Load(a); got != 3 {
		t.Fatalf("value = %d, want 3", got)
	}
}

// TestStandardHyTMInstrumentationCounts: every access loads its stripe's
// metadata, and each attempt stores a written stripe's version once. The
// body reads word 0 and writes words 0 and 1 of one stripe; with injected
// aborts each retried attempt pays the same again.
func TestStandardHyTMInstrumentationCounts(t *testing.T) {
	for _, inject := range []int{0, 50} {
		s := sys.MustNew(sys.DefaultConfig(1 << 10))
		e := NewStandard(s, Options{InjectAbortPercent: inject})
		a := s.Heap.MustAlloc(8)
		if s.StripeOf(a) != s.StripeOf(a+1) {
			t.Fatal("words 0 and 1 in different stripes")
		}
		th := e.NewThread()
		for i := 0; i < 10; i++ {
			if err := th.Atomic(func(tx engine.Tx) error {
				tx.Store(a, tx.Load(a)+1)
				tx.Store(a+1, 5)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		st := e.Snapshot()
		attempts := st.FastCommits + st.FastAborts
		if st.FastCommits != 10 || st.FastAborts != st.FastAbortsByReason[memsim.AbortInjected] {
			t.Fatalf("inject %d: stats = %v, want 10 fast commits and injected aborts only", inject, st)
		}
		if inject > 0 && st.FastAborts == 0 {
			t.Fatalf("inject %d: no attempt was retried", inject)
		}
		// Per attempt: 1 clock sample + 1 per read + 1 per write = 4
		// metadata reads; 1 metadata write for the one written stripe.
		if st.MetadataReads != 4*attempts {
			t.Fatalf("inject %d: metadata reads = %d over %d attempts, want 4 each", inject, st.MetadataReads, attempts)
		}
		if st.MetadataWrites != attempts {
			t.Fatalf("inject %d: metadata writes = %d over %d attempts, want 1 each", inject, st.MetadataWrites, attempts)
		}
		if w := s.Mem.Load(s.VersionAddr(a)); sys.UnpackVersion(w) != s.Clock.Read()+1 {
			t.Fatalf("inject %d: stripe carries %#x, want version clock+1", inject, w)
		}
		if got := s.Mem.Load(a); got != 10 {
			t.Fatalf("inject %d: counter = %d, want 10", inject, got)
		}
	}
}

func TestPureHTMNoMetadataTraffic(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := NewPureHTM(s, Options{})
	a := s.Heap.MustAlloc(2)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		_ = tx.Load(a)
		tx.Store(a+1, 5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if st.MetadataReads != 0 || st.MetadataWrites != 0 {
		t.Fatalf("HTM produced metadata traffic: %d reads, %d writes",
			st.MetadataReads, st.MetadataWrites)
	}
}

func TestStandardFastPathAbortsOnLockedStripe(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	var opts Options
	opts.Mixed = true
	e := NewStandard(s, opts)
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	locked := true
	err := th.Atomic(func(tx engine.Tx) error {
		if locked {
			// Lock the stripe mid-body so the instrumented read trips.
			s.Mem.Poke(s.VersionAddr(a), sys.LockWord(9))
			locked = false
			defer s.Mem.Poke(s.VersionAddr(a), sys.PackVersion(0))
		}
		_ = tx.Load(a)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if st.FastAbortsByReason[memsim.AbortExplicit] == 0 {
		t.Fatalf("stats = %v, want an explicit fast abort on the lock test", st)
	}
}

func TestInjectedAborts(t *testing.T) {
	var opts Options
	opts.InjectAbortPercent = 100
	opts.Mixed = true
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := NewStandard(s, opts)
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		tx.Store(a, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if st.FastAbortsByReason[memsim.AbortInjected] == 0 {
		t.Fatal("no injected aborts with 100% injection")
	}
	if st.SlowCommits != 1 {
		t.Fatalf("stats = %v, want commit via slow path", st)
	}
}
