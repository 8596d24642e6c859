package rhtm

import (
	"sync"
	"testing"
)

func TestQuickstartCounter(t *testing.T) {
	s := MustNewSystem(DefaultConfig(1 << 12))
	eng := NewRH1(s, DefaultRH1Options())
	counter := s.MustAlloc(1)
	var wg sync.WaitGroup
	const workers, incs = 4, 100
	for w := 0; w < workers; w++ {
		th := eng.NewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				if err := th.Atomic(func(tx Tx) error {
					tx.Store(counter, tx.Load(counter)+1)
					return nil
				}); err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Load(counter); got != workers*incs {
		t.Fatalf("counter = %d, want %d", got, workers*incs)
	}
}

func TestAllConstructorsProduceWorkingEngines(t *testing.T) {
	build := []struct {
		name string
		mk   func(*System) Engine
	}{
		{"RH1", func(s *System) Engine { return NewRH1(s, DefaultRH1Options()) }},
		{"RH1Fast", func(s *System) Engine { return NewRH1(s, RH1Options{FastOnly: true}) }},
		{"RH2", func(s *System) Engine { return NewRH2(s, DefaultRH1Options()) }},
		{"TL2", func(s *System) Engine { return NewTL2(s) }},
		{"HTM", func(s *System) Engine { return NewHTM(s, HWOptions{}) }},
		{"StdHyTM", func(s *System) Engine { return NewStandardHyTM(s, HWOptions{}) }},
		{"NoRec", func(s *System) Engine { return NewHybridNoRec(s, HWOptions{}) }},
		{"Phased", func(s *System) Engine { return NewPhasedTM(s, HWOptions{}) }},
	}
	for _, b := range build {
		t.Run(b.name, func(t *testing.T) {
			s := MustNewSystem(DefaultConfig(1 << 10))
			eng := b.mk(s)
			if eng.Name() == "" {
				t.Fatal("empty engine name")
			}
			a := s.MustAlloc(2)
			th := eng.NewThread()
			for i := 0; i < 10; i++ {
				if err := th.Atomic(func(tx Tx) error {
					v := tx.Load(a)
					tx.Store(a, v+1)
					tx.Store(a+1, v+1)
					return nil
				}); err != nil {
					t.Fatalf("Atomic: %v", err)
				}
			}
			if s.Load(a) != 10 || s.Load(a+1) != 10 {
				t.Fatalf("values = %d,%d, want 10,10", s.Load(a), s.Load(a+1))
			}
			if eng.Snapshot().Commits() != 10 {
				t.Fatalf("commits = %d, want 10", eng.Snapshot().Commits())
			}
		})
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	s := MustNewSystem(DefaultConfig(1 << 10))
	a, err := s.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	s.Store(a, 5)
	if s.Load(a) != 5 {
		t.Fatal("store/load mismatch")
	}
	s.Free(a, 8)
	b := s.MustAlloc(8)
	if b != a {
		t.Fatalf("free block not reused: %d vs %d", b, a)
	}
	if s.Peek(b) != 0 {
		t.Fatal("recycled block not zeroed")
	}
}

func TestNewSystemRejectsBadConfig(t *testing.T) {
	if _, err := NewSystem(Config{DataWords: -5}); err == nil {
		t.Fatal("negative DataWords accepted")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	s := MustNewSystem(Config{DataWords: 1 << 10}) // all other fields zero
	inner := s.Internal()
	if inner.Mem.Config().WordsPerLine != 8 || inner.MaxThreads() != 64 {
		t.Fatalf("defaults not applied: %+v", inner.Config())
	}
	if inner.Config().HTM.MaxWriteLines == 0 {
		t.Fatal("zero HTM config not defaulted")
	}
}

func TestGV5ClockMode(t *testing.T) {
	cfg := DefaultConfig(1 << 10)
	cfg.ClockMode = GV5
	s := MustNewSystem(cfg)
	eng := NewRH1(s, DefaultRH1Options())
	a := s.MustAlloc(1)
	th := eng.NewThread()
	if err := th.Atomic(func(tx Tx) error {
		tx.Store(a, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s.Load(a) != 1 {
		t.Fatal("GV5 engine lost a write")
	}
}

// TestRH2SlowPathLockTimeValidation is the regression test for a lost-update
// hole in RH2's software commit: phase 3 skips read-set stripes the
// transaction itself write-locked, so phase 1 must validate the version each
// lock replaces against tx_version (as TL2's lock phase does). Without that
// check, a transaction that read a word, then lost the race to a full commit
// on the same stripe, locks it blindly and writes back its stale
// read-modify-write — silently erasing the other commit.
//
// The interleaving is forced deterministically: T1 reads the word and parks
// mid-body while T2 runs a complete increment transaction on it; T1 then
// proceeds to commit. A correct engine must abort T1's first attempt and
// re-run its body.
func TestRH2SlowPathLockTimeValidation(t *testing.T) {
	s := MustNewSystem(DefaultConfig(1 << 12))
	eng := NewRH2(s, RH1Options{SlowOnly: true, MixPercent: 100})
	word := s.MustAlloc(1)
	s.Poke(word, 1000)

	t1Read := make(chan struct{})
	t2Done := make(chan struct{})
	go func() {
		<-t1Read
		th2 := eng.NewThread()
		if err := th2.Atomic(func(tx Tx) error {
			tx.Store(word, tx.Load(word)+100)
			return nil
		}); err != nil {
			t.Errorf("T2: %v", err)
		}
		close(t2Done)
	}()

	th1 := eng.NewThread()
	attempts := 0
	if err := th1.Atomic(func(tx Tx) error {
		v := tx.Load(word)
		attempts++
		if attempts == 1 {
			// Park between the read and the commit-time lock while T2
			// commits an increment to the same stripe.
			close(t1Read)
			<-t2Done
		}
		tx.Store(word, v+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Errorf("T1 committed on attempt 1 despite an intervening commit on its write stripe")
	}
	if got := s.Load(word); got != 1101 {
		t.Fatalf("word = %d, want 1101 (1000 + T2's 100 + T1's 1); T2's commit was overwritten", got)
	}
}
