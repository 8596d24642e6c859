package harness

import (
	"strings"
	"testing"
	"time"
)

func TestBuildAllEngines(t *testing.T) {
	for _, name := range AllEngines() {
		w := RBTreeWorkload(64, 20)
		r, err := Run(w, name, RunConfig{Threads: 1, OpsPerThread: 10, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Ops != 10 {
			t.Fatalf("%s: ops = %d, want 10", name, r.Ops)
		}
		if r.Stats.Commits() < 10 {
			t.Fatalf("%s: commits = %d, want >= 10", name, r.Stats.Commits())
		}
	}
}

func TestBuildUnknownEngine(t *testing.T) {
	if _, err := Run(RBTreeWorkload(64, 20), "nope",
		RunConfig{Threads: 1, OpsPerThread: 1}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestRunValidatesConfig(t *testing.T) {
	w := RBTreeWorkload(64, 0)
	if _, err := Run(w, EngTL2, RunConfig{Threads: 0, OpsPerThread: 1}); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := Run(w, EngTL2, RunConfig{Threads: 1}); err == nil {
		t.Fatal("no duration and no ops accepted")
	}
}

func TestTimeBasedRunStops(t *testing.T) {
	w := HashTableWorkload(128, 20)
	start := time.Now()
	r, err := Run(w, EngRH1Mix2, RunConfig{Threads: 2, Duration: 50 * time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("time-based run overran grossly")
	}
	if r.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if r.Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestBreakdownRun(t *testing.T) {
	w := RBTreeWorkload(256, 20)
	r, err := Run(w, EngTL2, RunConfig{Threads: 1, OpsPerThread: 50, Seed: 3, Breakdown: true})
	if err != nil {
		t.Fatal(err)
	}
	b := r.Breakdown
	if b == nil {
		t.Fatal("breakdown missing")
	}
	total := b.ReadPct + b.WritePct + b.CommitPct + b.PrivatePct + b.InterTxPct
	if total < 50 || total > 140 {
		t.Fatalf("breakdown percentages sum to %.1f, want ~100", total)
	}
	if b.ReadPct <= 0 {
		t.Fatal("TL2 tree workload must show read time")
	}
}

func TestAllWorkloadsRun(t *testing.T) {
	workloads := []Workload{
		RBTreeWorkload(128, 20),
		HashTableWorkload(128, 20),
		SortedListWorkload(32, 5),
		RandomArrayWorkload(1024, 20, 50),
	}
	for _, w := range workloads {
		r, err := Run(w, EngRH1Mix2, RunConfig{Threads: 2, OpsPerThread: 25, Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.Ops != 50 {
			t.Fatalf("%s: ops = %d, want 50", w.Name, r.Ops)
		}
	}
}

func TestDeterministicSeeds(t *testing.T) {
	w := RandomArrayWorkload(512, 10, 30)
	a := MustRun(w, EngTL2, RunConfig{Threads: 1, OpsPerThread: 40, Seed: 9})
	b := MustRun(w, EngTL2, RunConfig{Threads: 1, OpsPerThread: 40, Seed: 9})
	if a.Stats.Reads != b.Stats.Reads || a.Stats.Writes != b.Stats.Writes {
		t.Fatalf("same seed, different op streams: %d/%d vs %d/%d reads/writes",
			a.Stats.Reads, a.Stats.Writes, b.Stats.Reads, b.Stats.Writes)
	}
}

func TestExperimentsSmall(t *testing.T) {
	sc := SmallScale()
	sc.OpsPerThread = 25
	if got := len(Fig1(sc)); got != 4*len(sc.Threads) {
		t.Fatalf("Fig1 points = %d", got)
	}
	if got := len(Fig2c(sc, 20)); got != 5 {
		t.Fatalf("Fig2c points = %d", got)
	}
	tabs := Tables(sc, 20)
	if len(tabs) != 5 {
		t.Fatalf("Tables rows = %d", len(tabs))
	}
	for _, r := range tabs {
		if r.Breakdown == nil {
			t.Fatalf("%s: no breakdown", r.Engine)
		}
	}
	points := Fig3c(sc)
	if len(points) != 16 {
		t.Fatalf("Fig3c points = %d, want 16", len(points))
	}
	for _, p := range points {
		if p.Speedup <= 0 {
			t.Fatalf("Fig3c len=%d w=%d: speedup %.2f", p.TxLen, p.WritePct, p.Speedup)
		}
	}
}

func TestExtExperimentsSmall(t *testing.T) {
	sc := SmallScale()
	sc.OpsPerThread = 20
	clockRes := ExtClock(sc)
	if len(clockRes) != 2*len(sc.Threads) {
		t.Fatalf("ExtClock points = %d", len(clockRes))
	}
	capRes := ExtCapacity(sc, 32)
	if len(capRes) == 0 {
		t.Fatal("ExtCapacity empty")
	}
	// Short transactions must run mostly fast; long ones mostly slow.
	first, last := capRes[0], capRes[len(capRes)-1]
	if first.FastShare < 0.5 {
		t.Fatalf("txlen=%d fast share %.2f, want mostly fast", first.TxLen, first.FastShare)
	}
	if last.SlowShare < 0.5 {
		t.Fatalf("txlen=%d slow share %.2f, want mostly slow", last.TxLen, last.SlowShare)
	}
	if len(ExtHybrids(sc)) != 4*len(sc.Threads) {
		t.Fatal("ExtHybrids wrong size")
	}
}

func TestFormatters(t *testing.T) {
	sc := SmallScale()
	sc.Threads = []int{1}
	sc.OpsPerThread = 10
	res := Fig1(sc)
	var sb strings.Builder
	PrintThroughputSeries(&sb, "fig1", res)
	out := sb.String()
	for _, want := range []string{"fig1", "threads", "HTM", "TL2", "RH1 Fast"} {
		if !strings.Contains(out, want) {
			t.Fatalf("series output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	PrintSpeedupBars(&sb, "speedup", EngTL2, Fig2c(sc, 20))
	if !strings.Contains(sb.String(), "speedup") {
		t.Fatal("speedup output malformed")
	}
	sb.Reset()
	PrintBreakdownTable(&sb, "tab1", Tables(sc, 20))
	if !strings.Contains(sb.String(), "commit-ratio") {
		t.Fatal("breakdown output malformed")
	}
	sb.Reset()
	PrintFig3c(&sb, Fig3c(sc))
	if !strings.Contains(sb.String(), "len=400") {
		t.Fatal("fig3c output malformed")
	}
	sb.Reset()
	PrintCapacity(&sb, ExtCapacity(sc, 32), 32)
	if !strings.Contains(sb.String(), "rh2-fallbacks") {
		t.Fatal("capacity output malformed")
	}
}
