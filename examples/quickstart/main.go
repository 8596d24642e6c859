// Quickstart: a shared counter and a multi-word bank transfer under the RH1
// engine, showing the basic rhtm API — build a System, create an Engine, one
// Thread per goroutine, bodies via Atomic. The program self-checks its
// invariants and prints the engine's path statistics.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"

	"rhtm"
)

func main() {
	summary, err := run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(summary)
}

// run executes the scenario and returns a human-readable summary; the smoke
// test drives it directly.
func run() (string, error) {
	// A simulated machine with a 64K-word transactional heap.
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 16))

	// The paper's full protocol stack: RH1 fast path, mixed slow path, RH2
	// fallback, all-software slow-slow path.
	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())

	counter := s.MustAlloc(1)
	const accounts = 16
	bank := s.MustAlloc(accounts)
	for i := 0; i < accounts; i++ {
		s.Poke(bank+rhtm.Addr(i), 100)
	}

	const workers = 4
	const iters = 500
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := eng.NewThread() // one Thread per goroutine, never shared
		w, id := w, uint64(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters && errs[w] == nil; i++ {
				errs[w] = th.Atomic(func(tx rhtm.Tx) error {
					// Increment the shared counter...
					tx.Store(counter, tx.Load(counter)+1)
					// ...and move one unit between two accounts, atomically.
					from := bank + rhtm.Addr((id+uint64(i))%accounts)
					to := bank + rhtm.Addr((id*7+uint64(i)*3)%accounts)
					if f := tx.Load(from); f > 0 {
						tx.Store(from, f-1)
						tx.Store(to, tx.Load(to)+1)
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return "", fmt.Errorf("transaction failed: %w", err)
	}

	// Verify.
	if got := s.Load(counter); got != workers*iters {
		return "", fmt.Errorf("counter = %d, want %d", got, workers*iters)
	}
	var total uint64
	for i := 0; i < accounts; i++ {
		total += s.Load(bank + rhtm.Addr(i))
	}
	if total != accounts*100 {
		return "", fmt.Errorf("bank total = %d, want %d (money not conserved)", total, accounts*100)
	}

	st := eng.Snapshot()
	return fmt.Sprintf("all invariants hold: counter=%d, bank total=%d\nengine %s: %s\nabort ratio: %.3f aborts/commit\n",
		s.Load(counter), total, eng.Name(), st, st.AbortRatio()), nil
}
