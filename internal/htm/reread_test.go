package htm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rhtm/internal/memsim"
)

// TestRereadKeepsInvariantUnderCommits stresses the lock-free re-read through
// Txn.Read, which decides per access between memsim.SpecLoad and SpecReload
// (run it under -race). Writers move value between two words x and y by
// hardware commit, keeping x + y constant; readers touch both lines, then
// re-read x and y — no lock — and commit. A pair of re-reads that both
// returned ok must satisfy the invariant whether or not the commit then
// succeeds: a hardware transaction never observes an inconsistent state, even
// a doomed one.
func TestRereadKeepsInvariantUnderCommits(t *testing.T) {
	const sum = 1000
	const x = memsim.Addr(8)
	for _, policy := range []memsim.ConflictPolicy{memsim.RequesterWins, memsim.CommitterWins} {
		for _, y := range []memsim.Addr{13, 800} { // x's line, another line
			t.Run(fmt.Sprintf("policy%d/y%d", policy, y), func(t *testing.T) {
				cfg := memConfig(1024)
				cfg.Policy = policy
				m := memsim.New(cfg)
				m.Store(x, sum)

				const want = 500 // writer commits, and re-read pairs racing them
				deadline := time.Now().Add(20 * time.Second)
				stop := make(chan struct{})
				var readers, writers sync.WaitGroup
				var pairs, torn, commits atomic.Int64
				for r := 0; r < 3; r++ {
					readers.Add(1)
					go func() {
						defer readers.Done()
						tx := NewTxn(m, DefaultConfig())
						for {
							select {
							case <-stop:
								return
							default:
							}
							tx.Begin()
							_, ok1 := tx.Read(x)
							_, ok2 := tx.Read(y)
							if ok1 && ok2 {
								vx, okx := tx.Read(x)
								vy, oky := tx.Read(y)
								if okx && oky {
									pairs.Add(1)
									if vx+vy != sum {
										torn.Add(1)
									}
								}
							}
							tx.Commit() // parks the Txn either way
						}
					}()
				}
				for w := 0; w < 2; w++ {
					writers.Add(1)
					go func() {
						defer writers.Done()
						tx := NewTxn(m, DefaultConfig())
						// Under CommitterWins a writer yields to every registered
						// reader, so it commits in bursts: run until enough did.
						for i := 0; (commits.Load() < want || pairs.Load() < want) && time.Now().Before(deadline); i++ {
							tx.Begin()
							vx, ok1 := tx.Read(x)
							vy, ok2 := tx.Read(y)
							d := uint64(i%7) + 1
							if vx < d {
								d = -d // x is drained: move value back from y
							}
							if ok1 && ok2 && tx.Write(x, vx-d) && tx.Write(y, vy+d) && tx.Commit() {
								commits.Add(1)
							} else {
								tx.Fini()
							}
						}
					}()
				}
				writers.Wait()
				close(stop)
				readers.Wait()

				if n := torn.Load(); n != 0 {
					t.Fatalf("%d of %d re-read pairs broke x + y = %d", n, pairs.Load(), sum)
				}
				if got := m.Load(x) + m.Load(y); got != sum {
					t.Fatalf("final x + y = %d, want %d", got, sum)
				}
				if pairs.Load() < want || commits.Load() < want {
					t.Fatalf("too little exercised in 20s: %d re-read pairs, %d writer commits, want %d of each", pairs.Load(), commits.Load(), want)
				}
			})
		}
	}
}

// TestTxnSteadyStateAllocatesNothing: once a Txn's tables and buffers and the
// memory's stripes have grown to an attempt's size, repeating the attempt —
// Begin, 64 reads over 16 lines, 8 writes, Commit — allocates nothing.
func TestTxnSteadyStateAllocatesNothing(t *testing.T) {
	m := newMem(4096)
	tx := NewTxn(m, DefaultConfig())
	attempt := func() {
		tx.Begin()
		for i := 0; i < 64; i++ {
			line, word := memsim.Addr(i%16), memsim.Addr(i/16)
			if _, ok := tx.Read(64 + 8*line + word); !ok {
				t.Fatal("Read failed")
			}
		}
		for i := 0; i < 8; i++ {
			if !tx.Write(64+16*memsim.Addr(i), uint64(i)) {
				t.Fatal("Write failed")
			}
		}
		if !tx.Commit() {
			t.Fatalf("Commit failed: %v", tx.AbortReason())
		}
	}
	if n := testing.AllocsPerRun(100, attempt); n != 0 {
		t.Errorf("a warmed Begin → 64 reads → 8 writes → Commit allocates %v times, want 0", n)
	}
}
