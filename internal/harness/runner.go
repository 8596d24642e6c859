package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rhtm"
)

// RunConfig parameterizes one measurement point.
type RunConfig struct {
	// Threads is the number of worker goroutines.
	Threads int
	// Duration, when positive, runs time-based; otherwise each thread
	// executes OpsPerThread operations (deterministic, used by tests and
	// the testing.B benchmarks).
	Duration time.Duration
	// OpsPerThread is the per-thread operation count for count-based runs.
	OpsPerThread int
	// Seed derives per-thread RNGs; equal seeds give equal op streams.
	Seed int64
	// InjectPct forces a hardware-commit abort percentage.
	InjectPct int
	// Breakdown enables the per-phase timing instrumentation of Figure 2's
	// tables (adds timer overhead to every operation).
	Breakdown bool
	// GV5 switches the system's global clock to the GV5 discipline
	// (increment on every commit) for the clock ablation.
	GV5 bool
	// HTMOverride, when non-nil, replaces the simulated HTM capacity limits
	// (the capacity-extension experiment).
	HTMOverride *rhtm.HTMConfig
}

// Breakdown is the paper's single-thread time decomposition: the share of
// wall-clock time spent in transactional reads, writes, commit, private
// (in-transaction, non-shared) work, and inter-transaction code.
type Breakdown struct {
	ReadPct    float64
	WritePct   float64
	CommitPct  float64
	PrivatePct float64
	InterTxPct float64
}

// Result is one measured point.
type Result struct {
	Workload   string
	Engine     string
	Threads    int
	Ops        uint64
	Elapsed    time.Duration
	Throughput float64 // committed operations per second (host wall clock)
	Stats      rhtm.Stats
	Breakdown  *Breakdown

	// Accesses is the total number of simulated shared-memory accesses the
	// run issued (data + metadata, including work on aborted attempts).
	Accesses uint64
	// OpsPerKAccess is the architectural cost metric: committed operations
	// per thousand simulated shared accesses. Host wall-clock time measures
	// the *simulator*; this metric measures the *simulated machine* — each
	// shared access stands for one cache access, so engines that instrument
	// reads/writes or redo work after aborts score lower. The figure-shape
	// claims in EXPERIMENTS.md are made against this metric.
	OpsPerKAccess float64

	// CriticalAccesses is the largest access count among the served DB's
	// data-stream engines: a cluster's Systems, and a replicated Local's
	// replicas, progress in parallel, so the busiest one is the run's
	// simulated critical path. (A 1-System cluster run sets it to its only
	// System's count, a replicated Local to its primary's.) Zero for a
	// Local run without replicas.
	CriticalAccesses uint64
	// OpsPerKInterval is committed operations per thousand critical-path
	// accesses — the cluster scaling metric: adding Systems raises it when
	// (and only when) the load actually spreads. It equals OpsPerKAccess
	// on a 1-System cluster run; zero when CriticalAccesses is.
	OpsPerKInterval float64

	// Counters is the run's one observation channel: the kv.DB's
	// obs.Snapshot flattened to name→value (engine.*, store.*, wal.*,
	// cluster.* — see DESIGN.md §10) plus the workload's own harness.*
	// counters. Tests, the JSON trajectory and the printed digest all read
	// it. Nil for runs whose workload has no kv.DB (the raw structure
	// workloads).
	Counters map[string]int64
}

// derive fills the per-access metrics from the access totals.
func (r *Result) derive() {
	if r.Accesses > 0 {
		r.OpsPerKAccess = 1000 * float64(r.Ops) / float64(r.Accesses)
	}
	if r.CriticalAccesses > 0 {
		r.OpsPerKInterval = 1000 * float64(r.Ops) / float64(r.CriticalAccesses)
	}
}

// accesses totals an engine's simulated shared-memory accesses.
func accesses(st rhtm.Stats) uint64 {
	return st.Reads + st.Writes + st.MetadataReads + st.MetadataWrites
}

// measure is the one drive loop every runner shares. It validates cfg,
// asks newWorker for each thread's step function (sequentially, with the
// thread's own seeded RNG), drives the workers until the run's limit —
// OpsPerThread iterations for count-based runs, Duration for time-based
// ones — and returns the base Result: thread count, committed operations,
// elapsed time and throughput. A worker's done, when non-nil, runs once
// after its last step. Worker bodies never return user errors; a failure is
// an engine, protocol or capacity bug, surfaced via panic.
func measure(cfg RunConfig, newWorker func(id int, rng *rand.Rand) (step, done func() error)) (Result, error) {
	if cfg.Threads <= 0 {
		return Result{}, fmt.Errorf("harness: Threads must be positive")
	}
	if cfg.Duration <= 0 && cfg.OpsPerThread <= 0 {
		return Result{}, fmt.Errorf("harness: need Duration or OpsPerThread")
	}
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("harness: worker op: %v", err))
		}
	}
	timed, limit := cfg.Duration > 0, uint64(cfg.OpsPerThread)
	var stop atomic.Bool
	var totalOps atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Threads; i++ {
		step, done := newWorker(i, rand.New(rand.NewSource(cfg.Seed+int64(i)*7919)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := uint64(0)
			for timed && !stop.Load() || !timed && ops < limit {
				must(step())
				ops++
			}
			if done != nil {
				must(done())
			}
			totalOps.Add(ops)
		}()
	}
	if timed {
		time.Sleep(cfg.Duration)
		stop.Store(true)
	}
	wg.Wait()
	res := Result{Threads: cfg.Threads, Ops: totalOps.Load(), Elapsed: time.Since(start)}
	res.Throughput = float64(res.Ops) / res.Elapsed.Seconds()
	return res, nil
}

// Run executes one measurement: build a fresh system, populate the
// workload, spin up cfg.Threads workers on the named engine, and measure.
func Run(w Workload, engineName string, cfg RunConfig) (Result, error) {
	scfg := rhtm.DefaultConfig(w.DataWords)
	if cfg.GV5 {
		scfg.ClockMode = rhtm.GV5
	}
	if cfg.HTMOverride != nil {
		scfg.HTM = *cfg.HTMOverride
	}
	s := rhtm.MustNewSystem(scfg)
	factory := w.Build(s)
	eng, err := Build(s, engineName, cfg.InjectPct)
	if err != nil {
		return Result{}, err
	}

	var accs []*timeAcc
	res, err := measure(cfg, func(id int, rng *rand.Rand) (step, done func() error) {
		th := eng.NewThread()
		gen := factory(id, rng)
		if !cfg.Breakdown {
			return func() error { return th.Atomic(gen()) }, nil
		}
		acc := &timeAcc{}
		accs = append(accs, acc)
		return func() error { return runTimed(th, gen(), acc) }, nil
	})
	if err != nil {
		return Result{}, err
	}
	res.Workload = w.Name
	res.Engine = eng.Name()
	res.Stats = eng.Snapshot()
	res.Accesses = accesses(res.Stats)
	res.derive()
	if cfg.Breakdown {
		res.Breakdown = mergeBreakdown(accs, res.Elapsed)
	}
	return res, nil
}

// MustRun is Run for the experiment drivers, where a config error is a bug.
func MustRun(w Workload, engineName string, cfg RunConfig) Result {
	r, err := Run(w, engineName, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// --- breakdown instrumentation ---

// timeAcc accumulates per-thread phase times (nanoseconds).
type timeAcc struct {
	read   int64
	write  int64
	body   int64
	atomic int64
}

// runTimed executes one operation with phase timing.
func runTimed(th rhtm.Thread, op Op, acc *timeAcc) error {
	t0 := time.Now()
	err := th.Atomic(func(tx rhtm.Tx) error {
		b0 := time.Now()
		err := op(&timedTx{inner: tx, acc: acc})
		acc.body += int64(time.Since(b0))
		return err
	})
	acc.atomic += int64(time.Since(t0))
	return err
}

// timedTx wraps a Tx with read/write timers.
type timedTx struct {
	inner rhtm.Tx
	acc   *timeAcc
}

// Load implements rhtm.Tx.
func (t *timedTx) Load(a rhtm.Addr) uint64 {
	t0 := time.Now()
	v := t.inner.Load(a)
	t.acc.read += int64(time.Since(t0))
	return v
}

// Store implements rhtm.Tx.
func (t *timedTx) Store(a rhtm.Addr, v uint64) {
	t0 := time.Now()
	t.inner.Store(a, v)
	t.acc.write += int64(time.Since(t0))
}

// Unsupported implements rhtm.Tx.
func (t *timedTx) Unsupported() { t.inner.Unsupported() }

// mergeBreakdown converts accumulated phase times into the paper's
// percentage decomposition. Commit time is the part of Atomic not spent in
// the body; private time is body time not spent in shared reads/writes;
// inter-transaction time is wall time outside Atomic.
func mergeBreakdown(accs []*timeAcc, elapsed time.Duration) *Breakdown {
	var read, write, body, at int64
	for _, a := range accs {
		read += a.read
		write += a.write
		body += a.body
		at += a.atomic
	}
	wall := int64(elapsed) * int64(len(accs))
	if wall == 0 {
		return &Breakdown{}
	}
	commit := at - body
	private := body - read - write
	inter := wall - at
	pct := func(v int64) float64 {
		if v < 0 {
			v = 0
		}
		return 100 * float64(v) / float64(wall)
	}
	return &Breakdown{
		ReadPct:    pct(read),
		WritePct:   pct(write),
		CommitPct:  pct(commit),
		PrivatePct: pct(private),
		InterTxPct: pct(inter),
	}
}
