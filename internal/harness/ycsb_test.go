package harness

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestZipfianStatistics checks the generator against the closed-form
// distribution: every draw in range, the head ranks' empirical frequencies
// within tolerance of 1/((rank+1)^theta * zeta(n)), and clear skew (the
// most popular rank far above the uniform rate).
func TestZipfianStatistics(t *testing.T) {
	const n = 1000
	const draws = 200_000
	z := newZipfian(n, 0.99)
	rng := rand.New(rand.NewSource(11))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		r := z.next(rng)
		if r < 0 || r >= n {
			t.Fatalf("draw %d out of range [0,%d)", r, n)
		}
		counts[r]++
	}
	// Ranks 0 and 1 are drawn exactly per the pmf by Gray's algorithm; the
	// deeper ranks come from a continuous inversion and carry a known
	// approximation error, so they get a looser band.
	for rank := 0; rank < 10; rank++ {
		want := z.p(rank)
		got := float64(counts[rank]) / draws
		tol := 0.40
		if rank < 2 {
			tol = 0.10
		}
		if math.Abs(got-want) > tol*want {
			t.Errorf("rank %d: frequency %.5f, want %.5f ±%.0f%%", rank, got, want, tol*100)
		}
	}
	// Skew: rank 0 must dwarf the uniform rate 1/n.
	if f0 := float64(counts[0]) / draws; f0 < 5.0/n {
		t.Errorf("rank 0 frequency %.5f shows no zipfian skew (uniform would be %.5f)", f0, 1.0/n)
	}
	// The tail must still be covered: a majority of ranks drawn at least once.
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero < n/2 {
		t.Errorf("only %d of %d ranks ever drawn", nonzero, n)
	}
}

// TestZipfianUniformDiffer ensures the two distributions are wired up
// distinctly in the workload: zipfian concentrates mass, uniform does not.
func TestZipfianUniformDiffer(t *testing.T) {
	const n = 500
	const draws = 50_000
	z := newZipfian(n, 0.99)
	rng := rand.New(rand.NewSource(5))
	zc := make([]int, n)
	uc := make([]int, n)
	for i := 0; i < draws; i++ {
		zc[z.next(rng)]++
		uc[rng.Intn(n)]++
	}
	zmax, umax := 0, 0
	for i := 0; i < n; i++ {
		if zc[i] > zmax {
			zmax = zc[i]
		}
		if uc[i] > umax {
			umax = uc[i]
		}
	}
	if zmax < 3*umax {
		t.Errorf("zipfian max count %d not clearly above uniform max %d", zmax, umax)
	}
}

// TestScrambleSpreads: hashing consecutive ranks must spread them (no two
// of the first 100 ranks may collide modulo a small key space).
func TestScrambleSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 100; i++ {
		seen[scramble(i)%1024] = true
	}
	if len(seen) < 90 {
		t.Errorf("scramble mapped 100 ranks onto only %d of 1024 slots", len(seen))
	}
}

// TestYCSBFIncrements runs the F mix through a real engine under
// concurrency and verifies the RMW semantics end to end: the total of all
// leading counters (harness.fsum) grows by exactly the number of committed
// updates (harness.updates): each increments one record by one, atomically,
// so a lost update shows as a shortfall. RunKV audits the same identity
// against its own reading of the loaded store; this test reproduces the
// initial total independently, from the loader's fixed seed.
func TestYCSBFIncrements(t *testing.T) {
	const records, valueBytes = 128, 16
	spec := KVSpec{Mix: "f", Records: records, ValueBytes: valueBytes, Dist: DistUniform, Shards: 2}

	// Initial counter total: replay the loader (seed fixed in RunKV).
	loadRng := rand.New(rand.NewSource(loaderSeed))
	val := make([]byte, valueBytes)
	var initial uint64
	for i := 0; i < records; i++ {
		loadRng.Read(val)
		initial += binary.LittleEndian.Uint64(val)
	}

	r := MustRunKV(spec, EngRH1Mix2, RunConfig{Threads: 4, OpsPerThread: 100, Seed: 5})
	if r.Ops != 400 {
		t.Fatalf("ops = %d, want 400", r.Ops)
	}
	final := uint64(r.Counters["harness.fsum"])
	updates := uint64(r.Counters["harness.updates"])
	if updates == 0 {
		t.Fatal("F run committed no updates")
	}
	if got := final - initial; got != updates {
		t.Fatalf("counter total grew by %d, want %d updates (lost or phantom RMWs)", got, updates)
	}
}

// TestKVWorkloadRuns drives each mix and both distributions through real
// engines at small scale and sanity-checks the results.
func TestKVWorkloadRuns(t *testing.T) {
	for _, mix := range []string{"a", "b", "c", "d", "e", "f"} {
		for _, dist := range []string{DistUniform, DistZipfian} {
			spec := KVSpec{Mix: mix, Records: 256, ValueBytes: 32, Dist: dist, Shards: 4, ScanMax: 20}
			for _, eng := range []string{EngRH1Mix2, EngTL2, EngStdHy} {
				r := MustRunKV(spec, eng, RunConfig{Threads: 2, OpsPerThread: 40, Seed: 1})
				if r.Ops != 80 {
					t.Fatalf("%s/%s/%s: ops = %d, want 80", mix, dist, eng, r.Ops)
				}
				if r.Stats.Commits() < r.Ops {
					t.Fatalf("%s/%s/%s: commits %d < ops %d", mix, dist, eng, r.Stats.Commits(), r.Ops)
				}
				if mix == "c" && dist == DistUniform && r.Stats.Writes > 0 {
					// Read-only mix: no data writes from the workload itself.
					t.Fatalf("%s/%s/%s: read-only mix performed %d data writes", mix, dist, eng, r.Stats.Writes)
				}
				if mix == "e" {
					if r.Counters["harness.scans"] == 0 {
						t.Fatalf("%s/%s/%s: E mix ran no scans: %s", mix, dist, eng, digest(r.Counters))
					}
					if r.Counters["harness.scanned"] == 0 {
						t.Fatalf("%s/%s/%s: E mix scanned no entries", mix, dist, eng)
					}
				}
				if mix == "d" || mix == "e" {
					if r.Counters["harness.inserts"] == 0 {
						t.Fatalf("%s/%s/%s: %s mix inserted nothing: %s", mix, dist, eng, mix, digest(r.Counters))
					}
				}
			}
		}
	}
}

// TestYCSBDReadsSkewLatest: the D mix's reads must concentrate on recently
// inserted records. With inserts disabled by a tiny op budget this cannot
// be observed directly, so run a larger count-based budget and require
// that inserts happened and reads succeeded (the latest-draw path).
func TestYCSBDReadsSkewLatest(t *testing.T) {
	spec := KVSpec{Mix: "d", Records: 128, ValueBytes: 16, Shards: 2}
	r := MustRunKV(spec, EngTL2, RunConfig{Threads: 2, OpsPerThread: 200, Seed: 3})
	if r.Counters["harness.inserts"] == 0 {
		t.Fatalf("D run inserted nothing: %s", digest(r.Counters))
	}
	if r.Ops != 400 {
		t.Fatalf("ops = %d, want 400", r.Ops)
	}
}

// TestKVBatchedRuns: BatchSize groups single-key ops into Batch
// transactions; the run must report flushes and commit fewer transactions
// per operation than the unbatched run (the amortization the batching
// item exists for).
func TestKVBatchedRuns(t *testing.T) {
	// One thread isolates the per-transaction overhead the batch
	// amortizes; under contention the larger footprint trades some of the
	// gain back in aborts (the bench sweep quantifies that). The hardware
	// fast path is where the claim is crisp: its only per-transaction
	// metadata is the speculative clock read, so accesses fall strictly
	// with batch size. (On TL2 the picture inverts for read-heavy mixes:
	// single gets commit read-only without validation, but batched with a
	// put the whole read set re-validates — see EXPERIMENTS.md.)
	base := KVSpec{Mix: "a", Records: 256, ValueBytes: 32, Dist: DistUniform, Shards: 4}
	cfg := RunConfig{Threads: 1, OpsPerThread: 240, Seed: 1}
	single := MustRunKV(base, EngRH1Mix2, cfg)

	batched := base
	batched.BatchSize = 16
	b := MustRunKV(batched, EngRH1Mix2, cfg)
	if b.Ops != single.Ops {
		t.Fatalf("ops differ: %d vs %d", b.Ops, single.Ops)
	}
	if b.Counters["harness.batches"] == 0 {
		t.Fatalf("batched run flushed no batches: %s", digest(b.Counters))
	}
	if b.Accesses >= single.Accesses {
		t.Fatalf("batch=16 cost %d accesses, unbatched %d: no amortization", b.Accesses, single.Accesses)
	}
	if !strings.Contains(b.Workload, "batch=16") {
		t.Fatalf("batched workload name %q missing batch size", b.Workload)
	}
}

// TestKVReplicatedRun: Replicas attaches WAL-shipping followers and routes
// the mix's reads to them; the run must serve reads from replicas, report
// the harness.follower_* counters, and merge the repl.* schema (applied
// watermarks, lag, promotions) into the structured counter map.
func TestKVReplicatedRun(t *testing.T) {
	spec := KVSpec{Mix: "b", Records: 256, ValueBytes: 32, Dist: DistUniform,
		Shards: 2, WAL: true, Replicas: 2, Staleness: 1 << 20}
	r := MustRunKV(spec, EngTL2, RunConfig{Threads: 2, OpsPerThread: 200, Seed: 1})
	if r.Ops != 400 {
		t.Fatalf("ops = %d, want 400", r.Ops)
	}
	if !strings.Contains(r.Workload, "repl=2") {
		t.Fatalf("workload name %q missing replica count", r.Workload)
	}
	if got := r.Counters["harness.follower_reads"]; got == 0 {
		t.Fatalf("no reads served by replicas: %s", digest(r.Counters))
	}
	// The drained run's repl.* gauges: both replicas fully applied, no
	// promotions or fencing, and a non-empty apply-batch histogram.
	if lag := r.Counters["repl.lag_frames"]; lag != 0 {
		t.Fatalf("drained run reports lag_frames = %d", lag)
	}
	if r.Counters["repl.promotions"] != 0 || r.Counters["repl.fenced_frames"] != 0 {
		t.Fatalf("steady-state run promoted or fenced: %v", r.Counters)
	}
	if r.Counters["repl.apply_batch.count"] == 0 {
		t.Fatal("apply-batch histogram empty")
	}
	for _, replica := range []string{"replica-0", "replica-1"} {
		name := "repl.applied_lsn{replica=" + replica + ",stream=wal}"
		if r.Counters[name] == 0 {
			t.Fatalf("%s missing or zero in counters", name)
		}
	}
	// The critical path is the primary: offloaded reads must make the run
	// cheaper per primary access than per fleet access.
	if r.CriticalAccesses == 0 || r.CriticalAccesses >= r.Accesses {
		t.Fatalf("critical %d of %d accesses; want the primary's share", r.CriticalAccesses, r.Accesses)
	}
	if r.OpsPerKInterval <= r.OpsPerKAccess {
		t.Fatalf("ops/kinterval %.1f <= ops/kaccess %.1f: reads not offloaded",
			r.OpsPerKInterval, r.OpsPerKAccess)
	}
}

// TestKVRejectsBadSpecs documents that invalid specs fail with a clean
// error from RunKV (the old workload constructors panicked instead).
func TestKVRejectsBadSpecs(t *testing.T) {
	cases := map[string]KVSpec{
		"mix":       {Mix: "z"},
		"dist":      {Mix: "a", Dist: "banana"},
		"theta":     {Mix: "a", Dist: DistZipfian, Theta: 1.5},
		"crosspct":  {Mix: "a", CrossPct: 140},
		"crosskeys": {Mix: "a", Records: 8, CrossKeys: 6},
		"vbytes":    {Mix: "f", ValueBytes: 4},
		"batchmix":  {Mix: "f", BatchSize: 8},
		"backend":   {Mix: "a", Backend: "paper"},
		"systems":   {Mix: "a", Backend: BackendStore, Systems: 3},
		"replicas":  {Mix: "b", Replicas: 2},
		"staleness": {Mix: "b", WAL: true, Staleness: 8},
		"replnet":   {Mix: "b", WAL: true, Replicas: 1, Net: true},
		"replclust": {Mix: "b", WAL: true, Replicas: 1, Backend: BackendCluster, Systems: 2},
	}
	for name, spec := range cases {
		if _, err := RunKV(spec, EngTL2, RunConfig{Threads: 1, OpsPerThread: 1}); err == nil {
			t.Errorf("RunKV accepted bad %s: %+v", name, spec)
		}
	}
}

// TestReplicaDrainFailureFailsRun: a replica that cannot converge on the
// primary's log must fail the run — its repl.* gauges would otherwise be
// read from a state the primary never had. The followers are stopped under
// the backend and the primary moves on, so the drain has frames it can
// never apply.
func TestReplicaDrainFailureFailsRun(t *testing.T) {
	spec := KVSpec{Mix: "b", Records: 16, Shards: 2, WAL: true, Replicas: 1}.withDefaults()
	m, _ := lookupMix(spec.Mix)
	cfg := RunConfig{Threads: 1, OpsPerThread: 1}
	be, err := openBackend(m.sizing(spec, cfg), EngTL2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	be.group.Close()
	if err := be.db.Put(ycsbKey(0), []byte("after the followers stopped")); err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := be.finish(&res); err == nil {
		t.Fatal("Finish reported success over a replica that never drained")
	}
}
