package benchdiff

import (
	"os"
	"strings"
	"testing"
)

func row(exp, eng string, threads int, kacc, kint float64) Row {
	return Row{Experiment: exp, Workload: exp + "/w", Engine: eng, Threads: threads,
		OpsPerKAccess: kacc, OpsPerKInterval: kint}
}

func TestCompare(t *testing.T) {
	base := []Row{
		row("ycsb-a", "RH1", 2, 10, 0),
		row("cluster-ycsb-a", "RH1", 2, 10, 40),
		row("ycsb-a", "TL2", 2, 8, 0),
	}

	// Identical trajectories never regress.
	if regs := Compare(base, base, 0.25); len(regs) != 0 {
		t.Fatalf("self-compare regressed: %v", regs)
	}

	// A drop within threshold passes; beyond it fails, on the right metric.
	fresh := []Row{
		row("ycsb-a", "RH1", 2, 8, 0),           // -20%: within 25%
		row("cluster-ycsb-a", "RH1", 2, 10, 25), // kinterval -37.5%: regression
		row("ycsb-a", "TL2", 2, 8.5, 0),         // improved
	}
	regs := Compare(base, fresh, 0.25)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
	}
	if regs[0].Metric != "ops_per_kinterval" || regs[0].Fresh != 25 {
		t.Fatalf("wrong regression picked: %+v", regs[0])
	}
	if !strings.Contains(regs[0].String(), "cluster-ycsb-a") {
		t.Fatalf("rendering lost the key: %s", regs[0])
	}

	// A vanished baseline point is a total regression; extra fresh points
	// are fine.
	fresh2 := []Row{
		row("ycsb-a", "RH1", 2, 10, 0),
		row("cluster-ycsb-a", "RH1", 2, 10, 40),
		row("new-exp", "RH1", 2, 99, 0),
	}
	regs = Compare(base, fresh2, 0.25)
	if len(regs) != 1 || regs[0].Drop != 1 {
		t.Fatalf("vanished point not flagged: %v", regs)
	}
}

// TestSingleThreadExact: a one-thread point is a function of the seed, so
// it must reproduce its gated metric exactly: a drop far inside the
// threshold fails, and so does a rise, which asks for a regenerated
// baseline. Points at more threads keep the threshold both ways.
func TestSingleThreadExact(t *testing.T) {
	base := []Row{
		row("ycsb-a", "RH1", 1, 17.01, 0),
		row("repl", "RH1", 1, 9.5, 30.25), // gated on ops_per_kinterval
		row("ycsb-a", "RH1", 2, 17.01, 0),
	}
	if regs := Compare(base, base, 0.25); len(regs) != 0 {
		t.Fatalf("self-compare regressed: %v", regs)
	}

	// Lower at one thread, by far less than the threshold.
	fresh := []Row{
		row("ycsb-a", "RH1", 1, 17.0099, 0),
		row("repl", "RH1", 1, 9.1, 30.25), // ops_per_kacc is not gated here
		row("ycsb-a", "RH1", 2, 15, 0),    // -12%: within 25% at two threads
	}
	regs := Compare(base, fresh, 0.25)
	if len(regs) != 1 || regs[0].Key != "ycsb-a|ycsb-a/w|RH1|t=1" || regs[0].Drop <= 0 {
		t.Fatalf("single-thread drop: got %v, want one drop on the t=1 ycsb-a point", regs)
	}
	if strings.Contains(regs[0].String(), "stale") {
		t.Fatalf("a drop reads as a stale baseline: %s", regs[0])
	}

	// Higher at one thread: the baseline no longer records the point.
	fresh = []Row{
		row("ycsb-a", "RH1", 1, 20.36, 0),
		row("repl", "RH1", 1, 9.5, 30.5),
		row("ycsb-a", "RH1", 2, 25, 0), // a rise at two threads is fine
	}
	regs = Compare(base, fresh, 0.25)
	if len(regs) != 2 {
		t.Fatalf("single-thread rise: got %v, want the two t=1 points", regs)
	}
	for _, rg := range regs {
		if rg.Drop >= 0 || !strings.Contains(rg.String(), "baseline stale: regenerate") {
			t.Fatalf("rise not reported as a stale baseline: %s", rg)
		}
	}
	if got := map[string]bool{regs[0].Metric: true, regs[1].Metric: true}; !got["ops_per_kacc"] || !got["ops_per_kinterval"] {
		t.Fatalf("wrong metrics compared: %v", regs)
	}
}

func TestParseRows(t *testing.T) {
	rows, err := ParseRows(strings.NewReader(
		`{"experiment":"e","workload":"w","engine":"x","threads":2,"ops_per_kacc":5}` + "\n\n" +
			`{"experiment":"e2","workload":"w","engine":"x","threads":4,"ops_per_kinterval":7}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("parsed %d rows, want 2", len(rows))
	}
	if m, name := rows[0].Metric(); m != 5 || name != "ops_per_kacc" {
		t.Fatalf("row 0 metric = %v %s", m, name)
	}
	if m, name := rows[1].Metric(); m != 7 || name != "ops_per_kinterval" {
		t.Fatalf("row 1 metric = %v %s", m, name)
	}
	if _, err := ParseRows(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line parsed silently")
	}
}

// TestCommittedTrajectory gates the committed baseline itself: it must
// parse, cover both backends (a point with the cluster scaling metric and
// one without), embed structured counters, and self-compare clean — the
// invariants the CI bench gate depends on.
func TestCommittedTrajectory(t *testing.T) {
	f, err := os.Open("../../BENCH_smoke.json")
	if err != nil {
		t.Fatalf("committed trajectory missing: %v", err)
	}
	defer f.Close()
	rows, err := ParseRows(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("committed trajectory is empty")
	}
	var sawCluster, sawLocal bool
	for _, r := range rows {
		m, _ := r.Metric()
		if m <= 0 {
			t.Fatalf("point %s has no positive metric", r.Key())
		}
		if r.OpsPerKInterval > 0 {
			sawCluster = true
		} else {
			sawLocal = true
		}
	}
	if !sawCluster || !sawLocal {
		t.Fatalf("trajectory must cover both backends: cluster=%v local=%v", sawCluster, sawLocal)
	}
	if regs := Compare(rows, rows, 0.25); len(regs) != 0 {
		t.Fatalf("self-compare regressed: %v", regs)
	}

	// The -metrics flag was used: rows embed the structured counter map.
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	n, _ := f.Read(buf)
	if !strings.Contains(string(buf[:n]), `"counters"`) {
		t.Fatal("committed trajectory has no embedded counters — regenerate with rhbench -json -metrics")
	}
}
