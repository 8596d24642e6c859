// Command rhbench regenerates every table and figure of the paper's
// evaluation section (and the extension experiments in DESIGN.md) on the
// simulated machine.
//
// Usage:
//
//	rhbench [flags] <experiment>
//
// Experiments:
//
//	fig1          RB-Tree 20%% writes: HTM / Standard HyTM / TL2 / RH1 Fast
//	fig2a         RB-Tree 20%% writes incl. RH1 Mixed 10/100
//	fig2b         RB-Tree 80%% writes incl. RH1 Mixed 10/100
//	fig2c         single-thread speedup vs TL2 (20%% and 80%%)
//	tab1          single-thread breakdown table, 20%% writes
//	tab2          single-thread breakdown table, 80%% writes
//	fig3a         Hash Table 20%% writes
//	fig3b         Sorted List 5%% writes
//	fig3c         Random Array speedup matrix (RH1 Fast vs Standard HyTM)
//	ext-clock     GV6 vs GV5 clock ablation
//	ext-capacity  slow-path transaction-length extension
//	ext-hybrids   RH1 vs Standard HyTM / Hybrid NoRec / Phased TM
//	ycsb-a        sharded KV store, YCSB-A (50%% reads / 50%% updates)
//	ycsb-b        sharded KV store, YCSB-B (95%% reads)
//	ycsb-c        sharded KV store, YCSB-C (read-only)
//	ycsb-d        sharded KV store, YCSB-D (95%% latest-skewed reads / 5%% inserts)
//	ycsb-e        sharded KV store, YCSB-E (95%% short ordered scans / 5%% inserts)
//	ycsb-f        sharded KV store, YCSB-F (50%% reads / 50%% read-modify-writes)
//	ycsb-e-index  YCSB-E re-served by the table/ record layer from a
//	              secondary index: ordered bucket scans the planner bounds
//	              at the limit, inserts maintaining the index write-through
//	table-query   planner-driven table mix: 45%% point gets, 25%% index
//	              range scans, 20%% covering order-limit reads, 10%% upsert
//	              churn moving index entries (-tables/-idxsel shape it)
//	index-lookup  the selective bucket-equality query served twice from
//	              the same rows — planner-picked index scan vs forced full
//	              scan — quantifying what the secondary index buys
//	batch         YCSB-A with single-key ops grouped into kv.DB.Batch
//	              transactions, swept over -batchsizes (amortization experiment)
//	bank          two-account transfers; the run fails unless the total
//	              balance is conserved
//	cluster-<mix> any of the mixes above (ycsb-a..f, bank, session-cache,
//	              lock-service, ...) on the share-nothing multi-System
//	              cluster, swept over -systems × -cross (cross-System txn
//	              fraction); lease records route like data keys, so the
//	              coordination mixes' revokes ride 2PC
//	session-cache lease-TTL'd session cache: zipfian gets, miss = login
//	              (lease grant + leased put), virtual-time expiry churn
//	lock-service  lease-based mutual exclusion: create-only CAS acquires,
//	              guarded releases, crash-expiry reclaims, an exact
//	              virtual-time mutual-exclusion audit, and a watch stream
//	              counting the release/expiry deletes
//	recovery      write-ahead-log recovery: log size vs cold-open replay
//	              time, with and without a midpoint checkpoint
//	net-<mix>     any mix served over loopback TCP through the network
//	              client, swept over -conns connection-pool sizes
//	              (-pipeline toggles many-in-flight vs closed loop)
//	repl          YCSB-B (95%% reads) with -replicas WAL-shipping followers
//	              serving the reads at a revision watermark (-staleness
//	              bounds how far behind a follower answer may be); the
//	              K=0 point is the primary-only baseline
//	all           everything above (cluster: the -a sweep only; net: the
//	              -a sweep only)
//
// Every ycsb-*, batch, and cluster-* experiment drives the unified kv.DB
// interface (one workload suite, either data-layer backend). The ycsb-*
// experiments run on the sharded single-System store; -dist selects the
// request distribution (zipfian by default, as YCSB), -records and
// -shards size the store (values are 64 bytes), -scanmax bounds YCSB-E scan
// lengths.
//
// The cluster-* experiments run against the cluster package: N fully
// independent simulated machines behind a hash router, with cross-System
// transactions under two-phase commit. Reports include the cluster scaling
// metric (ops per 1000 critical-path accesses: accesses on the busiest
// System, since independent Systems progress in parallel) and the 2PC
// counters. -systems and -cross take comma-separated sweeps.
//
// The session-cache and lock-service experiments drive the kv layer's
// coordination surface (revisions, leases, watches) with a 16-tick lease
// TTL; -pumpevery sets the expiry-pump cadence.
//
// -wal attaches a write-ahead log (in-memory simulated device) to any KV
// experiment: every committed transaction is group-committed to the log
// before the operation returns, and the run's counters carry the log's
// (wal.txns per wal.syncs is the group-commit amortization). -syncevery N
// relaxes the barrier to every N transactions. The recovery experiment
// measures the other half: cold-open replay time against log size.
//
// -net serves any KV experiment over loopback TCP: the backend sits
// behind the server/ front end and the workload drives the network
// client, so the measured path includes framing, pipelining, and the
// server's cross-connection request batcher. -conns sizes the client's
// connection pool (the net-ycsb-* experiments sweep a comma-separated
// list; other experiments use the first value) and -pipeline toggles
// many-in-flight requests per connection versus a strict closed loop.
// Reports add the server.* counters (DESIGN.md §11).
//
// The repl experiment attaches -replicas (comma-separated sweep) full
// Systems to the primary's write-ahead log through repl/: each follower
// tails the log, replays every committed transaction at its original
// revision, and serves the mix's reads at its applied watermark. Reports
// add the repl.* counters (applied LSN/revision per replica, lag frames,
// apply-batch sizes) and the harness follower-read counters (served /
// stale-fallback / miss). ops/kinterval charges only the primary's
// accesses — the replicas replay in parallel — so the K>0 rows measure
// the read offload against the K=0 baseline.
//
// -json FILE appends one machine-readable JSON line per measured point
// (engine, workload, threads, ops, ops/kacc, ops/kinterval, abort ratio,
// and the run's structured counter map — the flattened obs snapshot:
// engine.*, store.*, wal.*, cluster.*, plus the workload's harness.*
// counters) to FILE — the format of the BENCH_*.json trajectory files; "-"
// writes to stdout. CI's bench-smoke step archives one as an artifact. The
// terminal output prints a digest of the same counters under each series.
//
// -trace-sample N traces every N-th Update/Batch end to end (DESIGN.md
// §14): the flight recorder's per-stage latency quantiles (engine,
// wal_sync, the 2PC phases, replica apply — and on -net runs the client's
// net stage) join the counter map under trace.* / client.trace.*, so a
// -json row carries the full stage breakdown per point.
//
// The default scale matches the paper (100K-node tree, threads 1..20,
// 1s per point), which takes a while on a small machine; use -quick for a
// reduced sweep or the individual -nodes/-threads/-dur flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"rhtm/internal/harness"
)

func main() {
	var (
		dur     = flag.Duration("dur", time.Second, "measurement duration per point")
		ops     = flag.Int("ops", 0, "ops per thread (overrides -dur; deterministic)")
		threads = flag.String("threads", "1,2,4,6,8,10,12,14,16,18,20", "comma-separated thread sweep")
		seed    = flag.Int64("seed", 1, "base RNG seed")
		quick   = flag.Bool("quick", false, "small, fast configuration (smoke run)")
		records = flag.Int("records", 10_000, "YCSB record count")
		shards  = flag.Int("shards", 8, "YCSB store shard count")
		dist    = flag.String("dist", harness.DistZipfian, "YCSB request distribution (uniform|zipfian)")
		theta   = flag.Float64("theta", 0.99, "zipfian skew for -dist zipfian")
		systems = flag.String("systems", "1,2,4", "comma-separated System counts for cluster-* experiments")
		crossPc = flag.String("cross", "0,10", "comma-separated cross-System txn percentages for cluster-* experiments")
		scanMax = flag.Int("scanmax", 100, "maximum YCSB-E scan length")
		tablesF = flag.Int("tables", 1, "table count for the table mixes (ycsb-e-index / table-query)")
		idxSel  = flag.Int("idxsel", 100, "index selectivity for the table mixes: distinct bucket values per table")
		batches = flag.String("batchsizes", "1,8,64", "comma-separated batch sizes for the batch experiment")
		pump    = flag.Int("pumpevery", 32, "ops between virtual-clock ticks / expiry pumps (session-cache / lock-service)")
		useNet  = flag.Bool("net", false, "serve the KV experiments over loopback TCP through the network client")
		connsF  = flag.String("conns", "1,4,16", "comma-separated client connection-pool sizes for net runs")
		pipe    = flag.Bool("pipeline", true, "allow many in-flight requests per connection in net runs (off = closed loop)")
		useWAL  = flag.Bool("wal", false, "attach a write-ahead log (in-memory device) to the KV experiments")
		syncEv  = flag.Int("syncevery", 0, "relax WAL syncs to every N logged transactions (0/1 = every group commit; needs -wal)")
		replsF  = flag.String("replicas", "0,1,2", "comma-separated WAL-shipping replica counts for the repl experiment")
		staleF  = flag.Int("staleness", 0, "bounded-staleness floor for follower reads in the repl experiment (0 = any staleness)")
		traceN  = flag.Int("trace-sample", 0, "trace every N-th Update/Batch end to end (0 = off); stage quantiles land in the -json counters as trace.*")
		jsonOut = flag.String("json", "", "append machine-readable JSON result lines to this file (\"-\" = stdout)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: rhbench [flags] <fig1|fig2a|fig2b|fig2c|tab1|tab2|fig3a|fig3b|fig3c|ext-clock|ext-capacity|ext-hybrids|%s|cluster-<mix>|net-<mix>|index-lookup|batch|recovery|repl|all>\n",
			strings.Join(harness.MixStems(), "|"))
		flag.PrintDefaults()
		os.Exit(2)
	}

	sc := harness.DefaultScale()
	sc.Duration = *dur
	sc.Seed = *seed
	if *ops > 0 {
		sc.Duration = 0
		sc.OpsPerThread = *ops
	}
	set := map[string]bool{} // the flags given explicitly
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	sc.Threads = mustInts(*threads, "thread count", 1, 1<<20)
	need(*theta > 0 && *theta < 1, "-theta must be in (0,1), got %g", *theta)
	need(*records > 0 && *shards > 0, "-records and -shards must be positive")
	need(*scanMax > 0, "-scanmax must be positive")
	need(*tablesF > 0 && *idxSel > 0, "-tables and -idxsel must be positive")
	need(*pump > 0, "-pumpevery must be positive")
	need(*staleF >= 0, "-staleness must be non-negative")
	spec := harness.KVSpec{
		Records:     *records,
		ValueBytes:  64,
		Shards:      *shards,
		Dist:        *dist,
		Theta:       *theta,
		ScanMax:     *scanMax,
		Tables:      *tablesF,
		IdxSel:      *idxSel,
		TTL:         16,
		PumpEvery:   *pump,
		WAL:         *useWAL,
		SyncEvery:   *syncEv,
		TraceSample: *traceN,
	}
	g := grids{
		systems:   mustInts(*systems, "system count", 1, 1<<20),
		cross:     mustInts(*crossPc, "percentage", 0, 100),
		batches:   mustInts(*batches, "batch size", 1, 1<<16),
		conns:     mustInts(*connsF, "connection count", 1, 1<<12),
		replicas:  mustInts(*replsF, "replica count", 0, 64),
		pipeline:  *pipe,
		staleness: *staleF,
	}
	// The cluster experiments run the same spec on the cluster backend, under
	// balanced load (the scaling claims need it) unless -dist says otherwise;
	// the flag's own default stays zipfian for the store, as YCSB specifies.
	cspec := spec
	cspec.Backend, cspec.CrossKeys = harness.BackendCluster, 2
	if !set["dist"] {
		cspec.Dist = harness.DistUniform
	}
	if *useNet {
		spec.Net, spec.Conns, spec.Pipeline = true, g.conns[0], *pipe
		cspec.Net, cspec.Conns, cspec.Pipeline = true, g.conns[0], *pipe
	}
	recoveryOps := []int{2_000, 10_000, 40_000}
	if *quick {
		q := harness.SmallScale()
		q.Threads = []int{1, 2, 4}
		q.OpsPerThread = 300
		// Explicit -threads / -ops survive -quick, so a pinned point (the
		// connection-scaling trajectory rows) can use the quick sizes with
		// its own sweep.
		if set["threads"] {
			q.Threads = sc.Threads
		}
		if set["ops"] {
			q.OpsPerThread = *ops
		}
		sc = q
		spec.Shards = 4
		// An explicit -records also survives -quick (the index-lookup gate
		// point runs at full table scale under the quick harness sizes).
		if !set["records"] {
			spec.Records, cspec.Records = 512, 512
		}
		g.systems, g.cross, g.batches = []int{1, 4}, []int{0, 20}, []int{1, 16}
		// An explicit -conns survives -quick (the bench gate pins the
		// deterministic 1-connection closed-loop point).
		if !set["conns"] {
			g.conns = []int{1, 4}
		}
		recoveryOps = []int{500, 2_000}
	}

	exp := flag.Arg(0)
	em := &emitter{out: os.Stdout, exp: exp}
	if *jsonOut == "-" {
		em.json = os.Stdout
	} else if *jsonOut != "" {
		f, err := os.OpenFile(*jsonOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		need(err == nil, "%v", err)
		defer f.Close()
		em.json = f
	}
	exps := []string{exp}
	if exp == "all" {
		exps = []string{"fig1", "fig2a", "fig2b", "fig2c", "tab1", "tab2",
			"fig3a", "fig3b", "fig3c", "ext-clock", "ext-capacity", "ext-hybrids",
			"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f",
			"ycsb-e-index", "table-query", "index-lookup", "batch",
			"session-cache", "lock-service", "recovery", "cluster-ycsb-a",
			"net-ycsb-a", "repl"}
	}
	// Reject bad specs here with a clean message (-dist, -syncevery without
	// -wal, -records below what a mix needs, ...); inside a sweep they would
	// surface as a MustRunKV panic.
	for _, e := range exps {
		for _, s := range g.specs(e, spec, cspec) {
			err := s.Check()
			need(err == nil, "%v", err)
		}
	}
	for _, e := range exps {
		em.exp = e
		runExperiment(e, em, sc, spec, cspec, g, recoveryOps)
		if exp == "all" {
			fmt.Println()
		}
	}
}

// emitter routes one experiment's artifacts: human-readable series to out,
// and (when -json is set) one machine-readable line per measured point.
type emitter struct {
	out  *os.File
	json io.Writer
	exp  string
}

// series prints a throughput series and mirrors it to the JSON sink.
func (e *emitter) series(title string, results []harness.Result) {
	harness.PrintThroughputSeries(e.out, title, results)
	e.record(results)
}

// record mirrors results to the JSON sink without printing.
func (e *emitter) record(results []harness.Result) {
	if e.json == nil {
		return
	}
	if err := harness.WriteResultsJSON(e.json, e.exp, results); err != nil {
		fmt.Fprintln(os.Stderr, "rhbench: json:", err)
		os.Exit(1)
	}
}

// grids carries the sweeps the KV experiments expand over.
type grids struct {
	systems, cross []int // cluster-<mix>: System counts × cross-System txn percentages
	conns          []int // net-<mix>: connection-pool sizes
	pipeline       bool
	batches        []int // batch: batch sizes
	replicas       []int // repl: replica counts
	staleness      int
}

// specs expands a KV experiment id into the specs it sweeps, one series
// each: a mix of the harness's table on the store (the mix's stem), on the
// cluster over the systems × cross grid (cluster-<stem>), over the wire per
// pool size (net-<stem>), or the batch and repl experiments' variations of
// one YCSB mix. Any other id expands to nothing.
func (g grids) specs(exp string, spec, cspec harness.KVSpec) (out []harness.KVSpec) {
	family, stem := "", exp
	switch {
	case exp == "batch":
		family, stem = exp, "ycsb-a"
	case exp == "repl":
		// The read-heavy mix is where follower reads pay: 95% of the ops
		// can leave the primary.
		family, stem = exp, "ycsb-b"
	case strings.HasPrefix(exp, "cluster-"):
		family, stem = "cluster", strings.TrimPrefix(exp, "cluster-")
	case strings.HasPrefix(exp, "net-"):
		family, stem = "net", strings.TrimPrefix(exp, "net-")
	}
	mix, ok := harness.MixForStem(stem)
	if !ok {
		return nil
	}
	spec.Mix, cspec.Mix = mix, mix
	switch family {
	case "cluster":
		for _, sys := range g.systems {
			for i, x := range g.cross {
				// Cross fractions beyond the first are skipped at one System,
				// where CrossPct is moot and the runs would be identical.
				if sys == 1 && i > 0 {
					continue
				}
				s := cspec
				s.Systems, s.CrossPct = sys, x
				out = append(out, s)
			}
		}
	case "net":
		for _, c := range g.conns {
			s := spec
			s.Net, s.Conns, s.Pipeline = true, c, g.pipeline
			out = append(out, s)
		}
	case "batch":
		for _, size := range g.batches {
			s := spec
			s.BatchSize = size
			out = append(out, s)
		}
	case "repl":
		// Every point runs in-process with the WAL attached — the K=0
		// baseline pays the same logging cost the replicated points do, so
		// the delta is the offload, not the log.
		for _, k := range g.replicas {
			s := spec
			s.WAL, s.Net, s.Conns, s.Pipeline = true, false, 0, false
			s.Replicas = k
			if k > 0 {
				s.Staleness = g.staleness
			}
			out = append(out, s)
		}
	default:
		out = []harness.KVSpec{spec}
	}
	return out
}

// extCapacityLines is the HTM footprint cap, in lines, ext-capacity
// squeezes the hardware to.
const extCapacityLines = 64

// runExperiment dispatches one experiment id and prints its artifact.
func runExperiment(exp string, em *emitter, sc harness.Scale, spec, cspec harness.KVSpec, g grids, recoveryOps []int) {
	out := em.out
	switch exp {
	case "recovery":
		points := harness.RecoveryExperiment(recoveryOps, spec.ValueBytes)
		harness.PrintRecovery(out, points)
		em.record(points)
	case "fig1":
		em.series(
			fmt.Sprintf("Figure 1: %d-node Constant RB-Tree, 20%% mutations", sc.RBNodes),
			harness.Fig1(sc))
	case "fig2a":
		em.series(
			fmt.Sprintf("Figure 2 (top left): %d-node Constant RB-Tree, 20%% mutations", sc.RBNodes),
			harness.Fig2a(sc))
	case "fig2b":
		em.series(
			fmt.Sprintf("Figure 2 (top right): %d-node Constant RB-Tree, 80%% mutations", sc.RBNodes),
			harness.Fig2b(sc))
	case "fig2c":
		for _, wp := range []int{20, 80} {
			results := harness.Fig2c(sc, wp)
			harness.PrintSpeedupBars(out,
				fmt.Sprintf("Figure 2 (middle): single-thread speedup, %d%% writes", wp),
				harness.EngTL2, results)
			em.record(results)
		}
	case "tab1":
		results := harness.Tables(sc, 20)
		harness.PrintBreakdownTable(out,
			"Figure 2 table `20_100_R`: single-thread breakdown, 20% writes", results)
		em.record(results)
	case "tab2":
		results := harness.Tables(sc, 80)
		harness.PrintBreakdownTable(out,
			"Figure 2 table `80_100_R`: single-thread breakdown, 80% writes", results)
		em.record(results)
	case "fig3a":
		em.series(
			fmt.Sprintf("Figure 3 (left): %d-element Constant Hash Table, 20%% mutations", sc.HashElems),
			harness.Fig3a(sc))
	case "fig3b":
		em.series(
			fmt.Sprintf("Figure 3 (middle): %d-node Constant Sorted List, 5%% mutations", sc.ListElems),
			harness.Fig3b(sc))
	case "fig3c":
		harness.PrintFig3c(out, harness.Fig3c(sc))
	case "ext-clock":
		em.series(
			"Extension: GV6 vs GV5 global clock (RH1 Mixed 100, RB-Tree 20%)",
			harness.ExtClock(sc))
	case "ext-capacity":
		harness.PrintCapacity(out, harness.ExtCapacity(sc, extCapacityLines), extCapacityLines)
	case "ext-hybrids":
		em.series(
			"Extension: hybrid designs compared (RB-Tree 20%)",
			harness.ExtHybrids(sc))
	case "index-lookup":
		queries := sc.OpsPerThread
		if queries <= 0 {
			queries = 300
		}
		for _, eng := range []string{harness.EngRH1Mix2, harness.EngTL2} {
			results, err := harness.IndexLookup(eng, spec.Records, queries)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rhbench:", err)
				os.Exit(1)
			}
			// One series per mode: both run at one thread on the same
			// engine, so a shared table would collapse them.
			for _, r := range results {
				em.series(
					fmt.Sprintf("%s: %d rows, %d bucket-equality queries, %s",
						r.Workload, spec.Records, queries, eng),
					[]harness.Result{r})
			}
			fmt.Fprintln(out)
		}
	default:
		// Every other id is a KV experiment: one series per spec.
		specs := g.specs(exp, spec, cspec)
		need(len(specs) > 0, "unknown experiment %q", exp)
		for _, s := range specs {
			em.series(s.Title(), harness.SweepKV(sc, s))
			fmt.Fprintln(out)
		}
	}
}

// need exits with a usage error unless ok.
func need(ok bool, format string, args ...any) {
	if !ok {
		fmt.Fprintf(os.Stderr, "rhbench: "+format+"\n", args...)
		os.Exit(2)
	}
}

// mustInts is parseInts for flag values: a bad sweep is a usage error.
func mustInts(s, what string, min, max int) []int {
	out, err := parseInts(s, what, min, max)
	need(err == nil, "%v", err)
	return out
}

// parseInts parses a comma-separated sweep of integers in [min, max],
// naming the quantity in errors.
func parseInts(s, what string, min, max int) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < min || n > max {
			return nil, fmt.Errorf("bad %s %q", what, p)
		}
		out = append(out, n)
	}
	return out, nil
}
