package phased

import (
	"sync"
	"testing"

	"rhtm/internal/engine"
	"rhtm/internal/enginetest"
	"rhtm/internal/htm"
	"rhtm/internal/memsim"
	"rhtm/internal/sys"
)

func factory(t *testing.T, cfg sys.Config) (engine.Engine, *sys.System) {
	t.Helper()
	s := sys.MustNew(cfg)
	return MustNew(s, Options{}), s
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, "PhasedTM", factory, enginetest.Capabilities{Unsupported: true})
}

func TestConformanceTinyHTM(t *testing.T) {
	tiny := func(t *testing.T, cfg sys.Config) (engine.Engine, *sys.System) {
		t.Helper()
		cfg.HTM = htm.Config{MaxFootprintLines: 4, MaxWriteLines: 2}
		s := sys.MustNew(cfg)
		return MustNew(s, Options{}), s
	}
	enginetest.Run(t, "PhasedTM-Tiny", tiny, enginetest.Capabilities{Unsupported: true})
}

func TestName(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(256))
	if MustNew(s, Options{}).Name() != "Phased TM" {
		t.Fatal("wrong name")
	}
}

func TestUnsupportedFlipsPhaseAndRestores(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := MustNew(s, Options{})
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		tx.Unsupported()
		tx.Store(a, 4)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Mem.Load(a); got != 4 {
		t.Fatalf("value = %d, want 4", got)
	}
	if got := s.Mem.Load(e.phase); got != phaseHardware {
		t.Fatalf("phase = %d after drain, want hardware", got)
	}
	if got := s.Mem.Load(e.swCnt); got != 0 {
		t.Fatalf("software count = %d after drain, want 0", got)
	}
	st := e.Snapshot()
	if st.SlowCommits != 1 {
		t.Fatalf("stats = %v, want one software commit", st)
	}
}

func TestPhaseFlipAbortsHardwarePeers(t *testing.T) {
	// One thread forces the software phase while others run hardware
	// transactions; the peers must abort (via the phase-word subscription)
	// and then complete in software, keeping the counter exact.
	s := sys.MustNew(sys.DefaultConfig(1 << 12))
	e := MustNew(s, Options{})
	ctr := s.Heap.MustAlloc(1)
	const workers, iters = 4, 80
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := e.NewThread()
		flip := w == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := th.Atomic(func(tx engine.Tx) error {
					if flip && i%10 == 0 {
						tx.Unsupported()
					}
					tx.Store(ctr, tx.Load(ctr)+1)
					return nil
				}); err != nil {
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
	if got := s.Mem.Load(e.swCnt); got != 0 {
		t.Fatalf("software count = %d after drain, want 0", got)
	}
}

func TestHardwarePhaseUninstrumentedData(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := MustNew(s, Options{})
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		tx.Store(a, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Stripe versions untouched by the hardware phase (no instrumentation).
	if v := s.Mem.Load(s.VersionAddr(memsim.Addr(a))); v != 0 {
		t.Fatalf("stripe version = %d, want 0", v)
	}
	st := e.Snapshot()
	// Phase + swCnt subscriptions only.
	if st.MetadataReads != 2 {
		t.Fatalf("metadata reads = %d, want 2 (phase/count subscription)", st.MetadataReads)
	}
}

// TestRemoteAbortWindow: the prologue finds the software phase, or software
// transactions still draining, on a hardware transaction a remote agent
// aborted during that very load.
func TestRemoteAbortWindow(t *testing.T) {
	for name, word := range map[string]func(e *Engine) memsim.Addr{
		"phase word": func(e *Engine) memsim.Addr { return e.phase },
		"count word": func(e *Engine) memsim.Addr { return e.swCnt },
	} {
		t.Run(name, func(t *testing.T) {
			s := sys.MustNew(sys.DefaultConfig(1 << 10))
			e := MustNew(s, Options{})
			th := e.NewThread().(*Thread)
			s.Mem.Store(word(e), 1)
			enginetest.CheckRemoteAbortWindow(t, s.Mem, &th.HWWorker, &th.hw, word(e),
				func(engine.Tx) error { return nil })
		})
	}
}
