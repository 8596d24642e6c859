package sys

import (
	"testing"

	"rhtm/internal/memsim"
)

func TestNewLayoutDisjointRegions(t *testing.T) {
	s := MustNew(DefaultConfig(1 << 12))
	regions := []memsim.Region{s.Versions, s.Masks, s.Heap.Region()}
	singles := []memsim.Addr{s.Clock.Addr(), s.RH2FallbackAddr, s.AllSoftwareAddr}
	for i, r := range regions {
		for j, q := range regions {
			if i != j && r.Contains(q.Base) {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
		for _, a := range singles {
			if r.Contains(a) {
				t.Fatalf("global word %d inside region %v", a, r)
			}
		}
	}
	// Globals must not share conflict lines with each other.
	seen := map[uint64]bool{}
	for _, a := range singles {
		l := s.Mem.LineOf(a)
		if seen[l] {
			t.Fatalf("global words share line %d", l)
		}
		seen[l] = true
	}
}

func TestStripeMapping(t *testing.T) {
	s := MustNew(DefaultConfig(1 << 10))
	base := s.Heap.Region().Base
	if got := s.StripeOf(base); got != 0 {
		t.Fatalf("StripeOf(base) = %d, want 0", got)
	}
	per := wordsPerStripe
	if got := s.StripeOf(base + memsim.Addr(per)); got != 1 {
		t.Fatalf("StripeOf(base+%d) = %d, want 1", per, got)
	}
	if s.VersionAddr(base) != s.Versions.Addr(0) {
		t.Fatal("VersionAddr mapping wrong")
	}
	if s.MaskBase(s.StripeOf(base+memsim.Addr(per))) != s.Masks.Addr(1) {
		t.Fatal("mask mapping wrong")
	}
	if s.Versions.Size != (1<<10)/per {
		t.Fatalf("%d stripes, want %d", s.Versions.Size, (1<<10)/per)
	}
}

func TestStripeOfOutsideHeapPanics(t *testing.T) {
	s := MustNew(DefaultConfig(256))
	defer func() {
		if recover() == nil {
			t.Fatal("StripeOf outside heap did not panic")
		}
	}()
	s.StripeOf(s.Clock.Addr())
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig(0)
	if _, err := New(cfg); err == nil {
		t.Fatal("DataWords=0 accepted")
	}
}

func TestVersionWordEncoding(t *testing.T) {
	if IsLocked(PackVersion(7)) {
		t.Fatal("packed version reads as locked")
	}
	if UnpackVersion(PackVersion(7)) != 7 {
		t.Fatal("version round trip failed")
	}
	lw := LockWord(5)
	if !IsLocked(lw) {
		t.Fatal("lock word not locked")
	}
	if owner := int(lw >> 1); owner != 5 {
		t.Fatalf("lock owner = %d, want 5", owner)
	}
	// The paper's literal encoding: thread_id*2+1.
	if lw != 5*2+1 {
		t.Fatalf("LockWord(5) = %d, want 11", lw)
	}
}

func TestHeapAllocationWithinDataRegion(t *testing.T) {
	s := MustNew(DefaultConfig(1 << 10))
	a := s.Heap.MustAlloc(16)
	if !s.Heap.Region().Contains(a) {
		t.Fatal("allocation outside heap region")
	}
	// Stripe mapping must accept every allocated word.
	for i := 0; i < 16; i++ {
		_ = s.StripeOf(a + memsim.Addr(i))
	}
}
