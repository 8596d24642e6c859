package enginetest_test

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rhtm"
	"rhtm/internal/harness"
	"rhtm/internal/hytm"
)

// update rewrites the golden from this tree. The file pins every engine's
// simulated counts across refactors of the engines, so re-record it only for
// a change that means to move a count, and say which in the commit:
//
//	go test ./internal/enginetest -run TestEngineStatsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/engine_stats.golden from this tree")

const goldenPath = "testdata/engine_stats.golden"

var errUser = errors.New("user abort")

// goldenStripes is how many distinct stripes the golden body spreads over;
// slots are 16 words apart, so they are distinct stripes and distinct lines
// at the default 8-word granularity.
const goldenStripes = 32

// goldenRow runs 300 single-thread transactions of a fixed, seeded mix on a
// fresh System and renders every counter the engine reports. state raises
// one of the protocol's global switches before the run, which is the only
// way one thread reaches the RH2 fast path of the RH1 engines (fallback) or
// the fast-path-slow-read mode (allsw).
func goldenRow(t *testing.T, name string, tiny bool, inject int, state string) string {
	t.Helper()
	cfg := rhtm.DefaultConfig(1 << 12)
	htmName := "default"
	if tiny {
		// Forces the RH1 → RH2 → all-software chain on the wide bodies.
		cfg.HTM = rhtm.HTMConfig{MaxFootprintLines: 4, MaxWriteLines: 2}
		htmName = "tiny"
	}
	s := rhtm.MustNewSystem(cfg)
	base := s.MustAlloc(goldenStripes * 16)
	slot := func(i int) rhtm.Addr { return base + rhtm.Addr(i%goldenStripes)*16 }
	switch state {
	case "fallback":
		s.Store(s.Internal().RH2FallbackAddr, 1)
	case "allsw":
		s.Store(s.Internal().AllSoftwareAddr, 1)
	}
	eng, err := harness.Build(s, name, inject)
	if err != nil {
		t.Fatal(err)
	}
	th := eng.NewThread()
	rng := rand.New(rand.NewSource(42))
	var hwOnly, user, other int
	for i := 0; i < 300; i++ {
		kind, k := i%8, rng.Intn(goldenStripes)
		err := th.Atomic(func(tx rhtm.Tx) error {
			switch kind {
			case 0: // read-only, three stripes
				_ = tx.Load(slot(k)) + tx.Load(slot(k+1)) + tx.Load(slot(k+2)+1)
			case 1, 2: // read-modify-write with a read of the own write
				tx.Store(slot(k), tx.Load(slot(k))+1)
				tx.Store(slot(k)+1, tx.Load(slot(k))+tx.Load(slot(k+5)))
				tx.Store(slot(k), tx.Load(slot(k))+1)
			case 3: // eight stripes written: over the tiny write capacity
				for j := 0; j < 8; j++ {
					tx.Store(slot(k+j), uint64(i+j))
				}
			case 4: // 16 loads over four stripes, then four stores
				var sum uint64
				for j := 0; j < 16; j++ {
					sum += tx.Load(slot(k+j%4) + rhtm.Addr(j/4))
				}
				for j := 0; j < 4; j++ {
					tx.Store(slot(k+j)+2, sum+uint64(j))
				}
			case 5: // an instruction hardware cannot run
				v := tx.Load(slot(k))
				tx.Unsupported()
				tx.Store(slot(k+1), v+1)
			case 6: // the body gives up
				tx.Store(slot(k), 99)
				return errUser
			case 7: // read-only, six stripes: over the tiny footprint
				for j := 0; j < 6; j++ {
					_ = tx.Load(slot(k + j))
				}
			}
			return nil
		})
		switch {
		case err == nil:
		case errors.Is(err, errUser):
			user++
		case errors.Is(err, hytm.ErrHardwareOnly):
			hwOnly++
		default:
			other++
			t.Errorf("%s: unexpected error %v", name, err)
		}
	}
	st := eng.Snapshot()
	if live := eng.Live(); live != st {
		t.Errorf("%s htm=%s inject=%d state=%s: Live() = %+v, Snapshot() = %+v", name, htmName, inject, state, live, st)
	}
	var sum uint64
	for i := 0; i < goldenStripes*16; i++ {
		sum += s.Peek(base + rhtm.Addr(i))
	}
	return fmt.Sprintf("engine=%q htm=%s inject=%d state=%s errs={hw-only:%d user:%d other:%d} memsum=%d stats=%+v\n",
		name, htmName, inject, state, hwOnly, user, other, sum, plainStats(st))
}

// plainStats is engine.Stats without its String method, so %+v prints every
// field by name.
type plainStats rhtm.Stats

// TestEngineStatsGolden holds every field of engine.Stats, for every engine
// name, to the file recorded from the tree before the engines' shared
// plumbing was collapsed. Drift allowed: none.
func TestEngineStatsGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range harness.AllEngines() {
		for _, tiny := range []bool{false, true} {
			for _, inject := range []int{0, 10} {
				for _, state := range []string{"clear", "fallback", "allsw"} {
					if state != "clear" && !strings.HasPrefix(name, "RH") {
						continue // only the RH engines read the switches
					}
					if name == harness.EngRH1Fast && state == "allsw" {
						// Livelock by construction, not a row: a stale
						// slow-read aborts transiently, only a software
						// abort advances the GV6 clock, and this engine
						// never leaves hardware on a transient abort. With
						// more threads the switch drops again; here the
						// test holds it up for the whole run.
						continue
					}
					b.WriteString(goldenRow(t, name, tiny, inject, state))
				}
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d lines, golden has %d", len(gl), len(wl))
	}
}
