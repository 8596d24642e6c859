package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"rhtm/internal/benchdiff"
)

// beMain makes the test binary stand in for rhbench: a child started with it
// set runs main() on its own command line.
const beMain = "RHBENCH_TEST_BE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(beMain) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func parseRowsFile(t *testing.T, path string) []benchdiff.Row {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := benchdiff.ParseRows(f)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestSmokeRowsExact regenerates the single-thread ycsb-a points of the CI
// bench gate with the gate's own command line and holds them to the committed
// BENCH_smoke.json at drift 0. These are simulated-machine counts, a function
// of the seed alone: a change to the host implementation of the simulator
// (memsim, htm, an engine) that moves one of them changed what is simulated,
// and fails here, in the tier-1 tests, as well as in the CI gate, whose
// benchdiff holds every single-thread point exactly too.
func TestSmokeRowsExact(t *testing.T) {
	const exp = "ycsb-a"
	fresh := filepath.Join(t.TempDir(), "fresh.json")
	cmd := exec.Command(os.Args[0], "-quick", "-ops", "300", "-threads", "1", "-seed", "1", "-json", fresh, exp)
	cmd.Env = append(os.Environ(), beMain+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("rhbench %v: %v\n%s", cmd.Args[1:], err, out)
	}
	got := map[string]benchdiff.Row{}
	for _, r := range parseRowsFile(t, fresh) {
		got[r.Key()] = r
	}
	points := 0
	for _, want := range parseRowsFile(t, filepath.Join("..", "..", "BENCH_smoke.json")) {
		if want.Experiment != exp || want.Threads != 1 {
			continue
		}
		points++
		r, ok := got[want.Key()]
		if !ok {
			t.Errorf("%s: committed point not regenerated", want.Key())
			continue
		}
		if r.Ops != want.Ops || r.OpsPerKAccess != want.OpsPerKAccess {
			t.Errorf("%s: ops %d, ops_per_kacc %v; BENCH_smoke.json has %d, %v",
				want.Key(), r.Ops, r.OpsPerKAccess, want.Ops, want.OpsPerKAccess)
		}
	}
	if points == 0 || points != len(got) {
		t.Errorf("%d committed single-thread %s points, %d regenerated", points, exp, len(got))
	}
}
