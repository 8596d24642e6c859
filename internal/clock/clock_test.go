package clock

import (
	"sync"
	"testing"

	"rhtm/internal/memsim"
)

func newClock(t *testing.T, mode Mode) (*memsim.Memory, *Clock) {
	t.Helper()
	m := memsim.New(memsim.Config{Words: 256, WordsPerLine: 8, Policy: memsim.RequesterWins, NonTxLoadAbortsWriters: true})
	c, err := New(m, mode)
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

func TestGV6NextDoesNotStore(t *testing.T) {
	_, c := newClock(t, GV6)
	if got := c.Read(); got != 0 {
		t.Fatalf("initial Read = %d, want 0", got)
	}
	if got := c.Next(); got != 1 {
		t.Fatalf("Next = %d, want 1", got)
	}
	if got := c.Read(); got != 0 {
		t.Fatalf("Read after GV6 Next = %d, want 0 (no store)", got)
	}
}

func TestGV5NextIncrements(t *testing.T) {
	_, c := newClock(t, GV5)
	if got := c.Next(); got != 1 {
		t.Fatalf("first GV5 Next = %d, want 1", got)
	}
	if got := c.Next(); got != 2 {
		t.Fatalf("second GV5 Next = %d, want 2", got)
	}
	if got := c.Read(); got != 2 {
		t.Fatalf("Read after GV5 Next = %d, want 2", got)
	}
}

func TestAdvanceOnAbortGV6(t *testing.T) {
	_, c := newClock(t, GV6)
	start := c.Read()
	c.AdvanceOnAbort(start)
	if got := c.Read(); got != start+1 {
		t.Fatalf("Read after AdvanceOnAbort = %d, want %d", got, start+1)
	}
	// Stale observation: the clock already moved past it; must not regress.
	c.AdvanceOnAbort(start)
	if got := c.Read(); got != start+1 {
		t.Fatalf("stale AdvanceOnAbort changed clock to %d, want %d", got, start+1)
	}
}

func TestAdvanceOnAbortGV5NoOp(t *testing.T) {
	_, c := newClock(t, GV5)
	c.Next()
	before := c.Read()
	c.AdvanceOnAbort(before)
	if got := c.Read(); got != before {
		t.Fatalf("GV5 AdvanceOnAbort changed clock: %d -> %d", before, got)
	}
}

func TestNextFromSample(t *testing.T) {
	_, c := newClock(t, GV6)
	if got := c.NextFromSample(41); got != 42 {
		t.Fatalf("NextFromSample(41) = %d, want 42", got)
	}
}

func TestClockOwnLine(t *testing.T) {
	m, c := newClock(t, GV6)
	reg, err := m.AllocRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if m.LineOf(c.Addr()) == m.LineOf(reg.Base) {
		t.Fatal("clock shares a line with a subsequently allocated region")
	}
}

func TestModeString(t *testing.T) {
	if GV6.String() != "GV6" || GV5.String() != "GV5" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "mode(9)" {
		t.Fatalf("unknown mode string = %q", Mode(9).String())
	}
}

// TestConcurrentAdvanceMonotonic checks that concurrent aborters never move
// the clock backwards and that it advances at least once.
func TestConcurrentAdvanceMonotonic(t *testing.T) {
	_, c := newClock(t, GV6)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.AdvanceOnAbort(c.Read())
			}
		}()
	}
	wg.Wait()
	final := c.Read()
	if final == 0 {
		t.Fatal("clock never advanced")
	}
	if final > 8*500 {
		t.Fatalf("clock advanced more than once per AdvanceOnAbort call: %d", final)
	}
}
