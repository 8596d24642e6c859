package memsim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stripeMates returns a memory and the first word of three distinct lines
// that share one lock stripe.
func stripeMates(t *testing.T, cfg Config) (m *Memory, a, b, c Addr) {
	t.Helper()
	cfg.Words = (2*nStripes + 8) * cfg.WordsPerLine
	m = New(cfg)
	a = Addr(4 * cfg.WordsPerLine)
	b = a + Addr(nStripes*cfg.WordsPerLine)
	c = b + Addr(nStripes*cfg.WordsPerLine)
	s := m.stripeOf(m.LineOf(a))
	if m.stripeOf(m.LineOf(b)) != s || m.stripeOf(m.LineOf(c)) != s {
		t.Fatalf("lines %d, %d, %d do not share a stripe", m.LineOf(a), m.LineOf(b), m.LineOf(c))
	}
	return m, a, b, c
}

// TestStripeNoFalseConflicts: lines that collide on a stripe share its lock
// and nothing else. No access to line A may abort a monitor of line B or C or
// prune one of their entries — not even a dead one — and MonitorCount counts
// per line.
func TestStripeNoFalseConflicts(t *testing.T) {
	ops := []struct {
		name string
		do   func(m *Memory, a Addr)
	}{
		{"Load", func(m *Memory, a Addr) { m.Load(a) }},
		{"Store", func(m *Memory, a Addr) { m.Store(a, 1) }},
		{"CAS", func(m *Memory, a Addr) { m.CAS(a, 0, 1) }},
		{"FetchAdd", func(m *Memory, a Addr) { m.FetchAdd(a, 1) }},
		{"SpecLoad", func(m *Memory, a Addr) { m.SpecLoad(a, &fakeTxn{}) }},
		{"SpecDeclareWrite", func(m *Memory, a Addr) { m.SpecDeclareWrite(a, &fakeTxn{}) }},
		{"CommitTxn", func(m *Memory, a Addr) {
			m.CommitTxn(&fakeTxn{}, []uint64{m.LineOf(a)}, []WriteEntry{{a, 2}})
		}},
		{"Unregister", func(m *Memory, a Addr) { m.Unregister(&fakeTxn{}, []uint64{m.LineOf(a)}) }},
	}
	for _, policy := range []ConflictPolicy{RequesterWins, CommitterWins} {
		for _, op := range ops {
			t.Run(fmt.Sprintf("policy%d/%s", policy, op.name), func(t *testing.T) {
				cfg := testConfig(0)
				cfg.Policy = policy
				m, a, b, c := stripeMates(t, cfg)
				onA, reader, dead, writer := &fakeTxn{}, &fakeTxn{}, &fakeTxn{}, &fakeTxn{}
				_, okA := m.SpecLoad(a, onA)
				_, okDead := m.SpecLoad(b, dead)
				_, okB := m.SpecLoad(b+1, reader)
				if !okA || !okDead || !okB || !m.SpecDeclareWrite(c, writer) {
					t.Fatal("registering the monitors failed")
				}
				dead.TryAbort(AbortExplicit)
				if na, nb, nc := m.MonitorCount(a), m.MonitorCount(b), m.MonitorCount(c); na != 1 || nb != 2 || nc != 1 {
					t.Fatalf("MonitorCount = %d, %d, %d on lines A, B, C; want 1, 2, 1 (per line, not per stripe)", na, nb, nc)
				}

				op.do(m, a)

				if reader.aborted() {
					t.Error("aborted the reader of line B")
				}
				if writer.aborted() {
					t.Error("aborted the writer of line C")
				}
				if nb, nc := m.MonitorCount(b), m.MonitorCount(c); nb != 2 || nc != 1 {
					t.Errorf("left %d, %d monitors on lines B, C; want 2, 1", nb, nc)
				}
			})
		}
	}
}

// TestOutOfRangePanicsBeforeLocking: an address past Config.Words panics in
// every entry point, and does so before a stripe is locked — a following
// access to a valid address on the same stripe must complete. Words is not a
// multiple of the line size, so one bad address lies on a line that also
// holds valid words; the other lies a whole stripe table further.
func TestOutOfRangePanicsBeforeLocking(t *testing.T) {
	const words = 60
	const valid = Addr(words - 1)
	entries := []struct {
		name string
		do   func(m *Memory, bad Addr)
	}{
		{"Load", func(m *Memory, bad Addr) { m.Load(bad) }},
		{"Store", func(m *Memory, bad Addr) { m.Store(bad, 1) }},
		{"CAS", func(m *Memory, bad Addr) { m.CAS(bad, 0, 1) }},
		{"FetchAdd", func(m *Memory, bad Addr) { m.FetchAdd(bad, 1) }},
		{"SpecLoad", func(m *Memory, bad Addr) { m.SpecLoad(bad, &fakeTxn{}) }},
		{"SpecReload", func(m *Memory, bad Addr) { m.SpecReload(bad, &fakeTxn{}) }},
		{"SpecDeclareWrite", func(m *Memory, bad Addr) { m.SpecDeclareWrite(bad, &fakeTxn{}) }},
		{"CommitTxn", func(m *Memory, bad Addr) {
			m.CommitTxn(&fakeTxn{}, []uint64{m.LineOf(valid), m.LineOf(bad)}, []WriteEntry{{valid, 1}, {bad, 1}})
		}},
		{"MonitorCount", func(m *Memory, bad Addr) { m.MonitorCount(bad) }},
	}
	for _, e := range entries {
		for _, bad := range []Addr{valid + 2, valid + nStripes*8} {
			t.Run(fmt.Sprintf("%s/%d", e.name, bad), func(t *testing.T) {
				m := newMem(t, words)
				if m.stripeOf(m.LineOf(bad)) != m.stripeOf(m.LineOf(valid)) {
					t.Fatalf("addresses %d and %d do not share a stripe", bad, valid)
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s(%d) on a %d-word memory did not panic", e.name, bad, words)
						}
					}()
					e.do(m, bad)
				}()
				done := make(chan struct{})
				go func() {
					m.Store(valid, 7)
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("Store(%d) hangs after the panic: %s(%d) left the stripe locked", valid, e.name, bad)
				}
			})
		}
	}
}

// TestRereadSemantics pins what SpecReload promises a registered monitor: the
// word's value with ok == true while it runs, ok == false once any agent has
// changed — and therefore first aborted — it.
func TestRereadSemantics(t *testing.T) {
	changes := []struct {
		name string
		do   func(m *Memory, a Addr)
	}{
		{"Store", func(m *Memory, a Addr) { m.Store(a, 9) }},
		{"CAS", func(m *Memory, a Addr) { m.CAS(a, 5, 9) }},
		{"FetchAdd", func(m *Memory, a Addr) { m.FetchAdd(a, 4) }},
		{"CommitTxn", func(m *Memory, a Addr) {
			m.CommitTxn(&fakeTxn{}, []uint64{m.LineOf(a)}, []WriteEntry{{a, 9}})
		}},
	}
	for _, ch := range changes {
		t.Run(ch.name, func(t *testing.T) {
			m := newMem(t, 64)
			m.Store(9, 5)
			reader, writer := &fakeTxn{}, &fakeTxn{}
			if _, ok := m.SpecLoad(8, reader); !ok {
				t.Fatal("SpecLoad failed")
			}
			if !m.SpecDeclareWrite(16, writer) {
				t.Fatal("SpecDeclareWrite failed")
			}
			if v, ok := m.SpecReload(9, reader); !ok || v != 5 {
				t.Fatalf("reader's SpecReload = %d, %v; want 5, true", v, ok)
			}
			if v, ok := m.SpecReload(17, writer); !ok || v != 0 {
				t.Fatalf("writer's SpecReload = %d, %v; want 0, true", v, ok)
			}
			ch.do(m, 9)
			if m.Load(9) != 9 {
				t.Fatalf("word = %d after %s, want 9", m.Load(9), ch.name)
			}
			if _, ok := m.SpecReload(9, reader); ok {
				t.Errorf("SpecReload returned ok after %s changed the line", ch.name)
			}
			if v, ok := m.SpecReload(17, writer); !ok || v != 0 {
				t.Errorf("writer of an untouched line: SpecReload = %d, %v; want 0, true", v, ok)
			}
		})
	}
}

// TestRereadNeverTornUnderCommits stresses SpecReload's linearizability claim
// (run it under -race). A writer keeps x + y constant by committing both
// words at once; readers register on both lines, then re-read x and y with no
// lock. Whenever both re-reads return ok the pair must satisfy the invariant
// — before any commit, because a hardware transaction never acts on an
// inconsistent view, even a doomed one.
func TestRereadNeverTornUnderCommits(t *testing.T) {
	const sum = 1000
	for _, policy := range []ConflictPolicy{RequesterWins, CommitterWins} {
		for _, y := range []Addr{13, 800} { // x's line, another line
			t.Run(fmt.Sprintf("policy%d/y%d", policy, y), func(t *testing.T) {
				cfg := testConfig(1024)
				cfg.Policy = policy
				m := New(cfg)
				const x = Addr(8)
				m.Store(x, sum)
				lines := []uint64{m.LineOf(x), m.LineOf(y)}

				stop := make(chan struct{})
				var readers sync.WaitGroup
				var pairs, torn atomic.Int64
				for r := 0; r < 3; r++ {
					readers.Add(1)
					go func() {
						defer readers.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							txn := &fakeTxn{}
							_, ok1 := m.SpecLoad(x, txn)
							_, ok2 := m.SpecLoad(y, txn)
							if ok1 && ok2 {
								vx, okx := m.SpecReload(x, txn)
								runtime.Gosched() // let a commit land between the two
								vy, oky := m.SpecReload(y, txn)
								if okx && oky {
									pairs.Add(1)
									if vx+vy != sum {
										torn.Add(1)
									}
								}
							}
							txn.TryAbort(AbortExplicit)
							m.Unregister(txn, lines)
						}
					}()
				}
				const want = 2000 // commits, and re-read pairs racing them
				commits := 0
				deadline := time.Now().Add(20 * time.Second)
				for i := 0; (commits < want || pairs.Load() < want) && time.Now().Before(deadline); i++ {
					w := &fakeTxn{}
					fp := slices.Clone(lines)
					vx, ok1 := m.SpecLoad(x, w)
					vy, ok2 := m.SpecLoad(y, w)
					d := uint64(i%7) + 1
					if vx < d {
						d = -d // x is drained: move value back from y
					}
					if ok1 && ok2 && m.SpecDeclareWrite(x, w) && m.SpecDeclareWrite(y, w) &&
						m.CommitTxn(w, fp, []WriteEntry{{x, vx - d}, {y, vy + d}}) {
						commits++
						continue
					}
					w.TryAbort(AbortExplicit)
					m.Unregister(w, fp)
				}
				close(stop)
				readers.Wait()

				if n := torn.Load(); n != 0 {
					t.Fatalf("%d of %d re-read pairs broke x + y = %d", n, pairs.Load(), sum)
				}
				if got := m.Load(x) + m.Load(y); got != sum {
					t.Fatalf("final x + y = %d, want %d", got, sum)
				}
				if pairs.Load() < want || commits < want {
					t.Fatalf("too little exercised in 20s: %d re-read pairs, %d commits, want %d of each", pairs.Load(), commits, want)
				}
			})
		}
	}
}

// TestColdStripeFirstMonitorAllocs: a stripe's first monitor entry is cut
// from the memory's slab, so registering on 1,024 cold stripes of a fresh
// memory — half as a reader, half as a writer — costs four slab allocations
// rather than one a stripe.
func TestColdStripeFirstMonitorAllocs(t *testing.T) {
	const lines = 1024
	fresh := []*Memory{newMem(t, lines*8), newMem(t, lines*8)} // warm-up run, measured run
	h := &fakeTxn{}
	allocs := testing.AllocsPerRun(1, func() {
		m := fresh[0]
		fresh = fresh[1:]
		for l := 0; l < lines; l += 2 {
			if _, ok := m.SpecLoad(Addr(l*8), h); !ok {
				t.Fatalf("SpecLoad on line %d failed", l)
			}
			if !m.SpecDeclareWrite(Addr((l+1)*8), h) {
				t.Fatalf("SpecDeclareWrite on line %d failed", l+1)
			}
		}
	})
	if allocs > 5 {
		t.Errorf("registering on %d cold stripes cost %.0f allocations, want <= 5", lines, allocs)
	}
}
