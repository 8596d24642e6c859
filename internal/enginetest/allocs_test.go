package enginetest_test

import (
	"testing"

	"rhtm"
	"rhtm/internal/harness"
)

// TestAtomicSteadyStateAllocs: one warmed Atomic call — 16 loads over four
// stripes, then four stores — allocates nothing on the host, on any engine,
// whether it commits in hardware (default capacity) or is pushed down its
// software chain (tiny capacity: RH1 slow → RH2 commit → all-software
// write-back; TL2 under Standard HyTM and Phased TM; NoRec's software path).
//
// Recorded at the parent of the PR that moved the software commits' scratch
// onto the thread: default capacity TL2 1, RH2 1, every other name 0; tiny
// capacity every RH name 2, TL2 / Standard HyTM / Phased TM 1, Hybrid NoRec
// 0 — one make per lock list, visible list and distinct-stripe list. A
// closure or slice that escapes once per attempt shows up here first, and
// then on rbtree-20's allocs_per_op (3% bound).
func TestAtomicSteadyStateAllocs(t *testing.T) {
	capacities := map[string]rhtm.HTMConfig{
		"default": {},
		"tiny":    {MaxFootprintLines: 4, MaxWriteLines: 2},
	}
	for _, name := range harness.AllEngines() {
		for capName, htmCfg := range capacities {
			if name == harness.EngHTM && capName == "tiny" {
				continue // no software path: the body cannot commit
			}
			cfg := rhtm.DefaultConfig(1 << 12)
			cfg.HTM = htmCfg
			s := rhtm.MustNewSystem(cfg)
			base := s.MustAlloc(4 * 16)
			eng, err := harness.Build(s, name, 0)
			if err != nil {
				t.Fatal(err)
			}
			th := eng.NewThread()
			body := func(tx rhtm.Tx) error {
				var sum uint64
				for j := 0; j < 16; j++ {
					sum += tx.Load(base + rhtm.Addr(j%4)*16 + rhtm.Addr(j/4))
				}
				for j := 0; j < 4; j++ {
					tx.Store(base+rhtm.Addr(j)*16+5, sum)
				}
				return nil
			}
			run := func() {
				if err := th.Atomic(body); err != nil {
					t.Fatalf("%s/%s: %v", name, capName, err)
				}
			}
			for i := 0; i < 64; i++ {
				run()
			}
			if got := testing.AllocsPerRun(200, run); got != 0 {
				t.Errorf("%s/%s: %.2f allocs per Atomic, want 0", name, capName, got)
			}
		}
	}
}
