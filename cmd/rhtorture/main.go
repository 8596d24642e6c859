// Command rhtorture stress-tests any engine with randomized invariant
// workloads — the long-running counterpart of the unit-test conformance
// suite. It runs three concurrent invariant games and fails loudly on the
// first violation:
//
//   - conservation: random transfers between accounts (total must not move);
//   - snapshot: writers keep a group of spread-out words equal, readers
//     verify they never observe a mixed generation;
//   - counter: every committed increment must land exactly once.
//
// A fraction of transactions simulate system calls (Tx.Unsupported), and the
// simulated HTM can be squeezed with -caplines to keep the engine constantly
// bouncing between its protocol levels while the invariants are checked.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rhtm"
	"rhtm/internal/harness"
)

func main() {
	var (
		engineName = flag.String("engine", harness.EngRH1Mix2, "engine to torture: "+strings.Join(harness.AllEngines(), ", "))
		threads    = flag.Int("threads", 8, "worker goroutines")
		dur        = flag.Duration("dur", 2*time.Second, "torture duration")
		capLines   = flag.Int("caplines", 0, "HTM footprint cap in lines (0 = default hardware)")
		sysPct     = flag.Int("syscalls", 5, "percentage of transactions simulating a syscall")
		seed       = flag.Int64("seed", time.Now().UnixNano(), "RNG seed")
	)
	flag.Parse()
	fmt.Printf("torturing %s: %d threads for %v (caplines=%d, syscalls=%d%%, seed=%d)\n",
		*engineName, *threads, *dur, *capLines, *sysPct, *seed)
	st, err := torture(*engineName, *threads, *dur, *capLines, *sysPct, *seed)
	fmt.Printf("stats: %s\n", st)
	if err != nil {
		fmt.Println("FAIL:", err)
		os.Exit(1)
	}
	fmt.Printf("OK: %d commits, all invariants hold\n", st.Commits())
}

// torture runs the three invariant games on the named engine for dur and
// returns the engine's statistics, with an error naming every invariant
// that broke (or the first transaction that failed).
func torture(engineName string, threads int, dur time.Duration, capLines, sysPct int, seed int64) (rhtm.Stats, error) {
	cfg := rhtm.DefaultConfig(1 << 18)
	if capLines > 0 {
		cfg.HTM = harness.CapacityHTMConfig(capLines)
	}
	s := rhtm.MustNewSystem(cfg)
	eng, err := harness.Build(s, engineName, 0)
	if err != nil {
		return rhtm.Stats{}, err
	}

	const accounts = 64
	const groupWords = 8
	bank := s.MustAlloc(accounts)
	for i := 0; i < accounts; i++ {
		s.Poke(bank+rhtm.Addr(i), 1000)
	}
	group := make([]rhtm.Addr, groupWords)
	for i := range group {
		group[i] = s.MustAlloc(1)
		s.MustAlloc(31)
	}
	counter := s.MustAlloc(1)

	var stop atomic.Bool
	var incs atomic.Uint64
	var violations atomic.Uint64
	// The first unexpected engine error ends the whole run.
	var txErr error
	var failOnce sync.Once
	failed := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		th := eng.NewThread()
		rng := rand.New(rand.NewSource(seed + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				syscall := rng.Intn(100) < sysPct
				var err error
				switch rng.Intn(3) {
				case 0: // conservation
					from := bank + rhtm.Addr(rng.Intn(accounts))
					to := bank + rhtm.Addr(rng.Intn(accounts))
					amt := uint64(rng.Intn(5))
					err = th.Atomic(func(tx rhtm.Tx) error {
						if syscall {
							tx.Unsupported()
						}
						if f := tx.Load(from); f >= amt {
							tx.Store(from, f-amt)
							tx.Store(to, tx.Load(to)+amt)
						}
						return nil
					})
				case 1: // snapshot game
					write := rng.Intn(4) == 0
					gen := rng.Uint64()
					err = th.Atomic(func(tx rhtm.Tx) error {
						if syscall {
							tx.Unsupported()
						}
						if write {
							for _, a := range group {
								tx.Store(a, gen)
							}
							return nil
						}
						v0 := tx.Load(group[0])
						for _, a := range group[1:] {
							if tx.Load(a) != v0 {
								violations.Add(1)
							}
						}
						return nil
					})
				default: // counter
					err = th.Atomic(func(tx rhtm.Tx) error {
						if syscall {
							tx.Unsupported()
						}
						tx.Store(counter, tx.Load(counter)+1)
						return nil
					})
					if err == nil {
						incs.Add(1)
					}
				}
				if err != nil {
					failOnce.Do(func() {
						txErr = err
						close(failed)
					})
					return
				}
			}
		}()
	}
	select {
	case <-time.After(dur):
	case <-failed:
	}
	stop.Store(true)
	wg.Wait()

	var broken []error
	if txErr != nil {
		broken = append(broken, fmt.Errorf("transaction failed: %w", txErr))
	}
	if v := violations.Load(); v > 0 {
		broken = append(broken, fmt.Errorf("%d torn snapshots observed", v))
	}
	var total uint64
	for i := 0; i < accounts; i++ {
		total += s.Load(bank + rhtm.Addr(i))
	}
	if total != accounts*1000 {
		broken = append(broken, fmt.Errorf("bank total = %d, want %d", total, accounts*1000))
	}
	if got := s.Load(counter); got != incs.Load() {
		broken = append(broken, fmt.Errorf("counter = %d, want %d", got, incs.Load()))
	}
	return eng.Snapshot(), errors.Join(broken...)
}
