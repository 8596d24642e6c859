package core

import (
	"sync"
	"testing"

	"rhtm/internal/engine"
	"rhtm/internal/enginetest"
	"rhtm/internal/htm"
	"rhtm/internal/memsim"
	"rhtm/internal/sys"
)

func factoryWith(opts Options, mutate func(*sys.Config)) enginetest.Factory {
	return func(t *testing.T, cfg sys.Config) (engine.Engine, *sys.System) {
		t.Helper()
		if mutate != nil {
			mutate(&cfg)
		}
		s := sys.MustNew(cfg)
		return New(s, opts), s
	}
}

// tinyHTM constrains hardware transactions so severely that fast paths and
// the RH1 commit transaction fail persistently, forcing traffic through the
// RH2 fallback and the all-software write-back.
func tinyHTM(cfg *sys.Config) {
	cfg.HTM = htm.Config{MaxFootprintLines: 4, MaxWriteLines: 2}
}

func TestConformanceRH1Mixed(t *testing.T) {
	enginetest.Run(t, "RH1-Mixed100", factoryWith(DefaultOptions(), nil),
		enginetest.Capabilities{Unsupported: true})
}

func TestConformanceRH1Mixed10(t *testing.T) {
	opts := DefaultOptions()
	opts.MixPercent = 10
	enginetest.Run(t, "RH1-Mixed10", factoryWith(opts, nil),
		enginetest.Capabilities{Unsupported: true})
}

func TestConformanceRH1FastOnly(t *testing.T) {
	opts := DefaultOptions()
	opts.Mode = ModeFastOnly
	enginetest.Run(t, "RH1-Fast", factoryWith(opts, nil),
		enginetest.Capabilities{Unsupported: true})
}

func TestConformanceRH1TinyHTM(t *testing.T) {
	enginetest.Run(t, "RH1-TinyHTM", factoryWith(DefaultOptions(), tinyHTM),
		enginetest.Capabilities{Unsupported: true})
}

func TestConformanceRH2(t *testing.T) {
	opts := DefaultOptions()
	opts.Protocol = ProtocolRH2
	enginetest.Run(t, "RH2", factoryWith(opts, nil),
		enginetest.Capabilities{Unsupported: true})
}

func TestConformanceRH2TinyHTM(t *testing.T) {
	opts := DefaultOptions()
	opts.Protocol = ProtocolRH2
	enginetest.Run(t, "RH2-TinyHTM", factoryWith(opts, tinyHTM),
		enginetest.Capabilities{Unsupported: true})
}

func TestConformanceRH1Injected(t *testing.T) {
	opts := DefaultOptions()
	opts.InjectAbortPercent = 50
	enginetest.Run(t, "RH1-Inject50", factoryWith(opts, nil),
		enginetest.Capabilities{Unsupported: true})
}

func TestEngineNames(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(256))
	cases := []struct {
		opts Options
		want string
	}{
		{Options{Protocol: ProtocolRH1, Mode: ModeFastOnly}, "RH1 Fast"},
		{Options{Protocol: ProtocolRH1, Mode: ModeMixed, MixPercent: 100}, "RH1 Mixed 100"},
		{Options{Protocol: ProtocolRH1, Mode: ModeMixed, MixPercent: 10}, "RH1 Mixed 10"},
		{Options{Protocol: ProtocolRH1, Mode: ModeMixed, MixPercent: 0}, "RH1 Mixed 0"},
		{Options{Protocol: ProtocolRH2, Mode: ModeMixed, MixPercent: 100}, "RH2 Mixed 100"},
		{Options{Protocol: ProtocolRH2, Mode: ModeFastOnly}, "RH2 Fast"},
	}
	for _, c := range cases {
		if got := New(s, c.opts).Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestFastPathCommitsInHardware(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := New(s, DefaultOptions())
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		tx.Store(a, tx.Load(a)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if st.FastCommits != 1 {
		t.Fatalf("stats = %v, want exactly one fast commit", st)
	}
	if st.SlowCommits+st.SlowSlowCommits != 0 {
		t.Fatalf("uncontended transaction took a slow path: %v", st)
	}
}

func TestFastPathWriteInstallsVersion(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := New(s, DefaultOptions())
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		tx.Store(a, 9)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	w := s.Mem.Load(s.VersionAddr(a))
	if sys.IsLocked(w) {
		t.Fatal("fast path left stripe locked")
	}
	if sys.UnpackVersion(w) != s.Clock.Read()+1 {
		t.Fatalf("stripe version = %d, want clock+1 = %d",
			sys.UnpackVersion(w), s.Clock.Read()+1)
	}
}

func TestUnsupportedRoutesToSlowPath(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := New(s, DefaultOptions())
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		tx.Unsupported()
		tx.Store(a, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if st.SlowCommits != 1 {
		t.Fatalf("stats = %v, want one slow commit", st)
	}
	if st.FastAbortsByReason[memsim.AbortUnsupported] == 0 {
		t.Fatal("no unsupported-instruction abort recorded")
	}
	if got := s.Mem.Load(a); got != 1 {
		t.Fatalf("value = %d, want 1", got)
	}
}

func TestReadOnlySlowCommitImmediate(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	e := New(s, DefaultOptions())
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		tx.Unsupported() // force the slow path
		_ = tx.Load(a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if st.ReadOnlyCommits != 1 {
		t.Fatalf("stats = %v, want one read-only commit", st)
	}
}

func TestCapacityForcesFallbackChain(t *testing.T) {
	cfg := sys.DefaultConfig(1 << 12)
	tinyHTM(&cfg)
	s := sys.MustNew(cfg)
	e := New(s, DefaultOptions())
	// 8 words spread across 8 stripes: the fast path dies on footprint, the
	// RH1 commit transaction dies on footprint (8 data lines + metadata),
	// and the RH2 write-back dies on write capacity (8 > 2 lines).
	addrs := make([]memsim.Addr, 8)
	for i := range addrs {
		addrs[i] = s.Heap.MustAlloc(1)
		s.Heap.MustAlloc(15) // pad to the next stripe
	}
	th := e.NewThread()
	if err := th.Atomic(func(tx engine.Tx) error {
		for i, a := range addrs {
			tx.Store(a, uint64(i)+100)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if got := s.Mem.Load(a); got != uint64(i)+100 {
			t.Fatalf("addrs[%d] = %d, want %d", i, got, i+100)
		}
		if w := s.Mem.Load(s.VersionAddr(a)); sys.IsLocked(w) {
			t.Fatalf("stripe %d left locked", i)
		}
	}
	st := e.Snapshot()
	if st.RH2Fallbacks == 0 {
		t.Fatalf("stats = %v, want RH2 fallback taken", st)
	}
	if st.AllSoftwareWritebacks == 0 {
		t.Fatalf("stats = %v, want all-software write-back taken", st)
	}
	if got := s.Mem.Load(s.RH2FallbackAddr); got != 0 {
		t.Fatalf("is_RH2_fallback = %d after quiescence, want 0", got)
	}
	if got := s.Mem.Load(s.AllSoftwareAddr); got != 0 {
		t.Fatalf("is_all_software = %d after quiescence, want 0", got)
	}
	// Read masks must be fully reset.
	for i := 0; i < s.Versions.Size; i++ {
		if m := s.Mem.Load(s.Masks.Addr(i)); m != 0 {
			t.Fatalf("read mask %d = %d after quiescence, want 0", i, m)
		}
	}
}

func TestRH2SlowCommitVisibilityBlocksFastWriters(t *testing.T) {
	// Directly exercise the mask interlock: with a reader's visibility bit
	// set on a stripe, an RH2 fast-path transaction writing that stripe
	// must abort rather than commit.
	cfg := sys.DefaultConfig(1 << 10)
	s := sys.MustNew(cfg)
	opts := DefaultOptions()
	opts.Protocol = ProtocolRH2
	e := New(s, opts)
	a := s.Heap.MustAlloc(1)
	s.Mem.Poke(s.MaskBase(s.StripeOf(a)), 1<<5) // thread 5 is "reading" the stripe
	th := e.NewThread()
	done := make(chan error, 1)
	go func() {
		done <- th.Atomic(func(tx engine.Tx) error {
			tx.Store(a, 7)
			return nil
		})
	}()
	err := <-done
	if err != nil {
		t.Fatal(err)
	}
	// The transaction can only have committed through the slow path (mask
	// blocks the fast path; slow-path locking is mask-agnostic).
	st := e.Snapshot()
	if st.FastCommits != 0 {
		t.Fatalf("fast path committed despite visible reader: %v", st)
	}
	if st.SlowCommits != 1 {
		t.Fatalf("stats = %v, want one slow commit", st)
	}
	if got := s.Mem.Load(a); got != 7 {
		t.Fatalf("value = %d, want 7", got)
	}
}

func TestInjectedAbortsAreTransient(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig(1 << 10))
	opts := DefaultOptions()
	opts.Mode = ModeFastOnly
	opts.InjectAbortPercent = 90
	e := New(s, opts)
	a := s.Heap.MustAlloc(1)
	th := e.NewThread()
	for i := 0; i < 20; i++ {
		if err := th.Atomic(func(tx engine.Tx) error {
			tx.Store(a, tx.Load(a)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Snapshot()
	if st.FastAbortsByReason[memsim.AbortInjected] == 0 {
		t.Fatalf("stats = %v, want injected aborts at 90%%", st)
	}
	if st.FastCommits != 20 {
		t.Fatalf("fast commits = %d, want 20 (fast-only mode)", st.FastCommits)
	}
	if got := s.Mem.Load(a); got != 20 {
		t.Fatalf("value = %d, want 20", got)
	}
}

func TestConcurrentFallbackStorm(t *testing.T) {
	// Several threads run transactions that straddle the capacity limit so
	// the engine continually oscillates between RH1 fast, RH1 slow, RH2
	// fallback, and software write-back — while others run small fast-path
	// transactions. The shared counter invariant must survive the storm.
	cfg := sys.DefaultConfig(1 << 13)
	cfg.HTM = htm.Config{MaxFootprintLines: 8, MaxWriteLines: 3}
	s := sys.MustNew(cfg)
	e := New(s, DefaultOptions())
	big := make([]memsim.Addr, 8)
	for i := range big {
		big[i] = s.Heap.MustAlloc(1)
		s.Heap.MustAlloc(31)
	}
	ctr := s.Heap.MustAlloc(1)
	const workers, iters = 6, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := e.NewThread()
		heavy := w%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := th.Atomic(func(tx engine.Tx) error {
					if heavy {
						v := tx.Load(big[0])
						for _, a := range big {
							tx.Store(a, v+1)
						}
					}
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
	// All big words stay equal (each heavy tx writes the same value to all).
	v0 := s.Mem.Load(big[0])
	for i, a := range big {
		if got := s.Mem.Load(a); got != v0 {
			t.Fatalf("big[%d] = %d, want %d (torn heavy write)", i, got, v0)
		}
	}
	if got := s.Mem.Load(s.RH2FallbackAddr); got != 0 {
		t.Fatalf("is_RH2_fallback = %d after quiescence", got)
	}
}

// TestRemoteAbortWindows: each site of the protocol stack that aborts the
// hardware transaction explicitly on a word it just loaded, with a remote
// abort forced in between (enginetest.CheckRemoteAbortWindow).
func TestRemoteAbortWindows(t *testing.T) {
	store := func(a memsim.Addr) func(engine.Tx) error {
		return func(tx engine.Tx) error { tx.Store(a, 1); return nil }
	}
	for _, c := range []struct {
		name string
		path path
		// arrange makes the path abort on what it loads from the returned
		// word; a is a data word the body stores to.
		arrange func(s *sys.System, a memsim.Addr) memsim.Addr
	}{
		{"RH1 prologue, is_RH2_fallback up", pathRH1Fast, func(s *sys.System, _ memsim.Addr) memsim.Addr {
			s.Mem.Store(s.RH2FallbackAddr, 1)
			return s.RH2FallbackAddr
		}},
		{"RH2 prologue, is_all_software up", pathRH2Fast, func(s *sys.System, _ memsim.Addr) memsim.Addr {
			s.Mem.Store(s.AllSoftwareAddr, 1)
			return s.AllSoftwareAddr
		}},
		{"RH2 pre-commit, read mask set", pathRH2Fast, func(s *sys.System, a memsim.Addr) memsim.Addr {
			ma, _ := s.MaskWordFor(s.StripeOf(a), 1)
			s.Mem.Store(ma, 2)
			return ma
		}},
		{"RH2 pre-commit, write stripe locked", pathRH2Fast, func(s *sys.System, a memsim.Addr) memsim.Addr {
			s.Mem.Store(s.VersionAddr(a), sys.LockWord(1))
			return s.VersionAddr(a)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := sys.MustNew(sys.DefaultConfig(1 << 10))
			a := s.Heap.MustAlloc(1)
			th := New(s, DefaultOptions()).NewThread().(*Thread)
			th.path = c.path
			word := c.arrange(s, a)
			enginetest.CheckRemoteAbortWindow(t, s.Mem, &th.HWWorker, (*coreTx)(th), word, store(a))
		})
	}
}

// TestSlowPathScratch: a thread keeps no more than scratch.Bound of the
// software sets, the RH2 commit's visible list and its stripe set after
// one large slow-path transaction, under either protocol.
func TestSlowPathScratch(t *testing.T) {
	for name, proto := range map[string]Protocol{"RH1": ProtocolRH1, "RH2": ProtocolRH2} {
		opts := DefaultOptions()
		opts.Protocol, opts.Mode = proto, ModeSlowOnly
		t.Run(name, func(t *testing.T) { enginetest.CheckSlowPathScratch(t, factoryWith(opts, nil)) })
	}
}
