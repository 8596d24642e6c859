// fallback-tour walks transactions through every level of the RH1 protocol
// stack by shrinking the simulated HTM until each path is forced in turn:
//
//  1. a transaction commits on the pure hardware fast path;
//  2. a read-heavy transaction too large for the hardware footprint runs its
//     body in software and commits through the RH1 mixed slow path's single
//     commit-time hardware transaction — which fits, because it touches only
//     the read set's *metadata* (one stripe version word per 8 data words),
//     not the data it read: this is exactly the paper's §1.2 argument for
//     why the mixed path accommodates much longer transactions;
//  3. with the hardware squeezed further, the commit transaction itself
//     overflows and the engine takes the RH2 fallback (write-set locks +
//     commit-time visible read masks);
//  4. squeezed until even RH2's write-only hardware write-back cannot fit,
//     the engine raises is_all_software_slow_path and finishes with plain
//     stores — the all-software slow-slow path.
//
// After each stage the program prints the engine's path counters so the
// transitions are visible, and verifies the data landed intact.
package main

import (
	"fmt"
	"log"
	"strings"

	"rhtm"
)

func main() {
	summary, err := run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(summary)
}

// run walks the four stages and returns their report; the smoke test drives
// it directly. The first stage to fail stops the tour.
func run() (string, error) {
	var out strings.Builder
	var err error
	stage := func(n int, title string, htm rhtm.HTMConfig, nWrites int, check func(rhtm.Stats) error) {
		if err == nil {
			err = runStage(&out, n, title, htm, nWrites, check)
		}
	}
	// Transactions read 16 words spread across 16 cache lines (16 distinct
	// stripes → 2 lines of stripe-version metadata) and write nWrites of
	// them. The HTM limits select the protocol level:
	stage(1, "pure hardware fast path",
		rhtm.HTMConfig{MaxFootprintLines: 2048, MaxWriteLines: 512}, 2,
		func(st rhtm.Stats) error {
			if st.FastCommits == 0 || st.SlowCommits != 0 {
				return fmt.Errorf("expected pure fast-path commits, got %v", st)
			}
			return nil
		})
	// 16 read lines overflow a 12-line footprint, but the slow commit needs
	// only ~2 metadata lines + 2 data + 2 metadata writes + the clock.
	stage(2, "mixed slow path (body in software, commit in hardware)",
		rhtm.HTMConfig{MaxFootprintLines: 12, MaxWriteLines: 8}, 2,
		func(st rhtm.Stats) error {
			if st.SlowCommits == 0 {
				return fmt.Errorf("expected slow-path commits, got %v", st)
			}
			if st.RH2Fallbacks != 0 || st.AllSoftwareWritebacks != 0 {
				return fmt.Errorf("did not expect deeper fallbacks yet: %v", st)
			}
			return nil
		})
	// Now even the ~7-line commit transaction overflows; RH2's write-only
	// write-back (2 data lines) still fits.
	stage(3, "RH2 fallback (locks + visible read masks)",
		rhtm.HTMConfig{MaxFootprintLines: 4, MaxWriteLines: 4}, 2,
		func(st rhtm.Stats) error {
			if st.RH2Fallbacks == 0 {
				return fmt.Errorf("expected RH2 fallbacks, got %v", st)
			}
			if st.AllSoftwareWritebacks != 0 {
				return fmt.Errorf("did not expect software write-back yet: %v", st)
			}
			return nil
		})
	// Four written lines against a 2-line write buffer: even the RH2
	// write-back hardware transaction fails, forcing plain stores.
	stage(4, "all-software slow-slow path",
		rhtm.HTMConfig{MaxFootprintLines: 4, MaxWriteLines: 2}, 4,
		func(st rhtm.Stats) error {
			if st.AllSoftwareWritebacks == 0 {
				return fmt.Errorf("expected software write-backs, got %v", st)
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	out.WriteString("\nall four protocol levels exercised and verified\n")
	return out.String(), nil
}

// runStage runs the canonical transaction shape (read 16 spread words,
// write the first nWrites of them) under the given HTM limits, checks which
// protocol level carried it, and appends the stage's report to out.
func runStage(out *strings.Builder, n int, title string, htm rhtm.HTMConfig, nWrites int, check func(rhtm.Stats) error) error {
	cfg := rhtm.DefaultConfig(1 << 16)
	cfg.HTM = htm
	s := rhtm.MustNewSystem(cfg)
	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())

	const words = 16
	addrs := make([]rhtm.Addr, words)
	for i := range addrs {
		addrs[i] = s.MustAlloc(1)
		s.MustAlloc(7) // next address lands on the next line/stripe
	}

	th := eng.NewThread()
	for round := uint64(1); round <= 3; round++ {
		err := th.Atomic(func(tx rhtm.Tx) error {
			sum := uint64(0)
			for _, a := range addrs {
				sum += tx.Load(a)
			}
			for _, a := range addrs[:nWrites] {
				tx.Store(a, sum+round)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("stage %d: %w", n, err)
		}
	}
	// All written words must carry the same (last) value: a torn write set
	// would leave them different.
	want := s.Load(addrs[0])
	for i, a := range addrs[:nWrites] {
		if got := s.Load(a); got != want {
			return fmt.Errorf("stage %d: addrs[%d] = %d, want %d (torn write set)", n, i, got, want)
		}
	}
	st := eng.Snapshot()
	if err := check(st); err != nil {
		return fmt.Errorf("stage %d (%s): %w", n, title, err)
	}
	fmt.Fprintf(out, "stage %d: %s\n  HTM limits: footprint=%d lines, writes=%d lines\n  %s\n",
		n, title, htm.MaxFootprintLines, htm.MaxWriteLines, st)
	return nil
}
