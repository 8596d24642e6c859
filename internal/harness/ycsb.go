package harness

import (
	"fmt"
	"math"
	"math/rand"
)

// YCSB-style workloads over the unified kv.DB interface: the classic
// cloud-serving mixes (A 50/50 read/update, B 95/5, C read-only, D
// latest-distribution read/insert, E short ordered scans, F 50/50
// read/read-modify-write) plus a bank-transfer invariant mix, with uniform
// and zipfian request distributions. One spec, one worker, and one runner
// drive both data-layer backends — the single-System sharded store and the
// share-nothing multi-System cluster — so a workload written once measures
// any engine at any scale (see kvrun.go).

// Request distributions accepted by KVSpec.Dist.
const (
	DistUniform = "uniform"
	DistZipfian = "zipfian"
)

// Backends accepted by KVSpec.Backend.
const (
	// BackendStore runs on one System: an rhtm engine over a sharded store.
	BackendStore = "store"
	// BackendCluster runs on N independent Systems behind the 2PC router.
	BackendCluster = "cluster"
)

// KVSpec parameterizes one KV workload, on either backend.
type KVSpec struct {
	// Mix selects a row of the mix table (mixes.go): the YCSB workload
	// letters "a" to "f", "bank" (transfers between 8-byte balances; the run
	// fails if the total is not conserved), the coordination mixes "session"
	// and "lock" (coord.go), and the table mixes "eidx" and "query", which
	// run the table/ record layer instead of raw records (tablerun.go).
	Mix string
	// Records is the number of pre-loaded records (or bank accounts).
	Records int
	// ValueBytes is the value size (keys are the 12-byte "user%08d" form).
	ValueBytes int
	// Dist selects the request distribution. Default: DistZipfian on the
	// store backend (as YCSB specifies), DistUniform on the cluster (the
	// scaling claims are about balanced load).
	Dist string
	// Theta is the zipfian skew; 0 selects YCSB's 0.99.
	Theta float64
	// Backend selects the data layer: BackendStore (default while
	// Systems <= 1) or BackendCluster (forced when Systems > 1).
	Backend string
	// Shards is the store backend's shard count (0 = 8).
	Shards int
	// Systems is the cluster backend's System count (default 1).
	Systems int
	// CrossPct is the percentage of operations run as multi-key
	// transactions of CrossKeys keys — cross-System 2PC on the cluster,
	// cross-shard local transactions on the store.
	CrossPct int
	// CrossKeys is how many keys a multi-key transaction touches
	// (default 2).
	CrossKeys int
	// ScanMax bounds mix "e" scan lengths: each scan draws a uniform
	// length in [1, ScanMax] (default 100). The table mixes draw their
	// query limits from the same bound.
	ScanMax int
	// Tables spreads the table mixes' rows over this many tables — each
	// with its own keyspace, secondary index, and statistics (default 1).
	Tables int
	// IdxSel is the table mixes' index selectivity: the indexed bucket
	// field cycles through this many distinct values per table, so an
	// equality on the index matches about Records/(Tables×IdxSel) rows
	// (default 100).
	IdxSel int
	// TTL is the lease time-to-live in virtual clock ticks for the
	// coordination mixes "session" and "lock" (default 16).
	TTL int
	// PumpEvery is the coordination mixes' expiry cadence: every PumpEvery
	// operations (across all workers) the virtual clock advances one tick
	// and ExpireLeases runs (default 32).
	PumpEvery int
	// BatchSize, when > 1, groups the single-key operations of mixes
	// a/b/c into kv.DB.Batch calls of this size — the batching
	// amortization experiment.
	BatchSize int
	// Net serves the backend over loopback TCP and drives the workload
	// through the network client, so the run measures the full server/
	// wire path — framing, pipelining, the cross-connection batcher —
	// instead of in-process calls.
	Net bool
	// Conns is the client's connection-pool size for Net runs (default 4).
	Conns int
	// Pipeline allows many in-flight requests per pooled connection. Off,
	// the run is a classic closed loop: at most Conns outstanding
	// requests, each waiting out its round trip. Requires Net.
	Pipeline bool
	// WAL attaches a write-ahead log to the backend (in-memory device):
	// the run populates through the DB so every record is logged, and the
	// counters carry the log's (wal.txns, wal.syncs, wal.bytes — group-commit
	// amortization shows as txns/sync > 1).
	WAL bool
	// SyncEvery relaxes the WAL's durability barrier to every N logged
	// transactions (0/1 = every group commit). Requires WAL.
	SyncEvery int
	// Replicas attaches this many WAL-shipping replicas to the primary
	// (each a full System tailing the log through repl.Group) and routes
	// the single-key reads of mixes a/b/c/f to them round-robin as
	// follower reads. Requires WAL; store backend, in-process only.
	Replicas int
	// Staleness bounds how far behind a follower read may be: each read
	// demands floor = hi - Staleness, where hi is the highest watermark
	// any worker has observed, and falls back to the primary (counted)
	// when the replica answers kv.ErrTooStale. 0 accepts any staleness.
	// Requires Replicas.
	Staleness int
	// TraceSample enables end-to-end request tracing at 1/N: every N-th
	// Update or Batch opens an obs.Trace whose typed stages (engine,
	// wal_sync, 2PC phases, replica apply — DESIGN.md §14) land in the
	// backend's flight recorder; the run's Counters then carry per-stage
	// quantile summaries under trace.*. On Net runs the client owns the
	// sampling decision and propagates the trace id over the wire, so the
	// summaries split into the server's stages (trace.*) and the client's
	// net stage (client.trace.*). 0 disables tracing entirely.
	TraceSample int
}

// withDefaults fills unset (zero or negative) fields.
func (sp KVSpec) withDefaults() KVSpec {
	if sp.Records <= 0 {
		sp.Records = 10_000
	}
	if sp.ValueBytes <= 0 {
		sp.ValueBytes = 64
	}
	if m, ok := lookupMix(sp.Mix); ok && m.valueBytes > 0 {
		sp.ValueBytes = m.valueBytes
	}
	if sp.TTL <= 0 {
		sp.TTL = 16
	}
	if sp.PumpEvery <= 0 {
		sp.PumpEvery = 32
	}
	if sp.Systems <= 0 {
		sp.Systems = 1
	}
	if sp.Backend == "" {
		if sp.Systems > 1 {
			sp.Backend = BackendCluster
		} else {
			sp.Backend = BackendStore
		}
	}
	if sp.Dist == "" {
		if sp.Backend == BackendCluster {
			sp.Dist = DistUniform
		} else {
			sp.Dist = DistZipfian
		}
	}
	if sp.Theta <= 0 {
		sp.Theta = 0.99
	}
	if sp.Shards <= 0 {
		sp.Shards = 8
	}
	if sp.CrossKeys <= 0 {
		sp.CrossKeys = 2
	}
	if sp.ScanMax <= 0 {
		sp.ScanMax = 100
	}
	if sp.Tables <= 0 {
		sp.Tables = 1
	}
	if sp.IdxSel <= 0 {
		sp.IdxSel = 100
	}
	if sp.Net && sp.Conns <= 0 {
		sp.Conns = 4
	}
	return sp
}

// Name identifies the workload in output rows.
func (sp KVSpec) Name() string {
	sp = sp.withDefaults()
	m, ok := lookupMix(sp.Mix)
	if !ok {
		m = &mixDesc{stem: "ycsb-" + sp.Mix}
	}
	name := m.stem + "/" + sp.Dist
	if sp.Backend == BackendCluster {
		name = fmt.Sprintf("cluster-%s/%s/s=%d/x=%d", sp.Mix, sp.Dist, sp.Systems, sp.CrossPct)
	}
	if m.table {
		name += fmt.Sprintf("/tables=%d/idxsel=%d", sp.Tables, sp.IdxSel)
	}
	if sp.BatchSize > 1 {
		name += fmt.Sprintf("/batch=%d", sp.BatchSize)
	}
	if sp.WAL {
		name += "/wal"
		if sp.SyncEvery > 1 {
			name += fmt.Sprintf("/sync=%d", sp.SyncEvery)
		}
	}
	if sp.Net {
		name += fmt.Sprintf("/net/c=%d", sp.Conns)
		if sp.Pipeline {
			name += "/pipe"
		}
	}
	if sp.Replicas > 0 {
		name += fmt.Sprintf("/repl=%d", sp.Replicas)
		if sp.Staleness > 0 {
			name += fmt.Sprintf("/stale=%d", sp.Staleness)
		}
	}
	if sp.TraceSample > 0 {
		name += fmt.Sprintf("/trace=%d", sp.TraceSample)
	}
	return name
}

// Title describes the workload for a human-readable series heading.
func (sp KVSpec) Title() string {
	sp = sp.withDefaults()
	title := sp.Name()
	if m, ok := lookupMix(sp.Mix); ok {
		title = fmt.Sprintf("%s (%s): %s", m.title, m.blurb, title)
	}
	return fmt.Sprintf("%s, %d records", title, sp.Records)
}

// validate rejects bad specs with a clean error before any System is built.
func (sp KVSpec) validate() error {
	m, ok := lookupMix(sp.Mix)
	if !ok {
		return fmt.Errorf("harness: unknown KV mix %q (want %s)", sp.Mix, mixNames())
	}
	if sp.Backend != BackendStore && sp.Backend != BackendCluster {
		return fmt.Errorf("harness: unknown backend %q (want %s or %s)", sp.Backend, BackendStore, BackendCluster)
	}
	if sp.Backend == BackendStore && sp.Systems > 1 {
		return fmt.Errorf("harness: Systems = %d needs the cluster backend", sp.Systems)
	}
	if sp.Dist != DistUniform && sp.Dist != DistZipfian {
		return fmt.Errorf("harness: unknown distribution %q (want %s or %s)", sp.Dist, DistUniform, DistZipfian)
	}
	if sp.Dist == DistZipfian && sp.Theta >= 1 {
		return fmt.Errorf("harness: zipfian theta must be in (0,1), got %g", sp.Theta)
	}
	if sp.CrossPct < 0 || sp.CrossPct > 100 {
		return fmt.Errorf("harness: CrossPct must be in [0,100], got %d", sp.CrossPct)
	}
	if sp.CrossKeys*2 > sp.Records {
		return fmt.Errorf("harness: CrossKeys %d too large for %d records", sp.CrossKeys, sp.Records)
	}
	if sp.ValueBytes < m.minValueBytes {
		return fmt.Errorf("harness: mix %q needs ValueBytes >= %d for its counter, got %d",
			sp.Mix, m.minValueBytes, sp.ValueBytes)
	}
	if sp.BatchSize > 1 && !m.batchable {
		return fmt.Errorf("harness: BatchSize does not apply to mix %q (no single-key operations to group)", sp.Mix)
	}
	if sp.SyncEvery > 1 && !sp.WAL {
		return fmt.Errorf("harness: SyncEvery needs WAL")
	}
	if sp.Replicas < 0 || sp.Staleness < 0 {
		return fmt.Errorf("harness: Replicas and Staleness must be non-negative")
	}
	if sp.Replicas > 0 {
		if !sp.WAL {
			return fmt.Errorf("harness: Replicas needs WAL (replicas tail the primary's log)")
		}
		if sp.Backend != BackendStore {
			return fmt.Errorf("harness: Replicas runs on the store backend")
		}
		if sp.Net {
			return fmt.Errorf("harness: Replicas is in-process (no Net)")
		}
	}
	if sp.Staleness > 0 && sp.Replicas == 0 {
		return fmt.Errorf("harness: Staleness needs Replicas")
	}
	if m.table {
		if sp.Tables > 64 {
			return fmt.Errorf("harness: Tables must be at most 64, got %d", sp.Tables)
		}
		if sp.Records < sp.Tables {
			return fmt.Errorf("harness: %d tables need at least as many records, got %d", sp.Tables, sp.Records)
		}
		if sp.CrossPct != 0 {
			return fmt.Errorf("harness: CrossPct applies to the raw KV mixes, not %q", sp.Mix)
		}
		if sp.Replicas > 0 {
			return fmt.Errorf("harness: follower reads serve the raw single-key mixes, not %q", sp.Mix)
		}
	}
	if !sp.Net && (sp.Conns != 0 || sp.Pipeline) {
		return fmt.Errorf("harness: Conns/Pipeline need Net")
	}
	if sp.TraceSample < 0 {
		return fmt.Errorf("harness: TraceSample must be non-negative, got %d", sp.TraceSample)
	}
	return nil
}

// Check applies defaults and validates the spec — for drivers that want to
// reject bad flags with a clean message before starting a sweep.
func (sp KVSpec) Check() error {
	return sp.withDefaults().validate()
}

// ycsbKey formats the i-th record's key.
func ycsbKey(i int) []byte {
	return []byte(fmt.Sprintf("user%08d", i))
}

// --- zipfian request distribution ---

// zipfian draws ranks in [0, n) with P(rank) proportional to
// 1/(rank+1)^theta — the ZipfianGenerator of Gray et al. ("Quickly
// Generating Billion-Record Synthetic Databases", SIGMOD '94) that YCSB
// uses, with YCSB's default theta = 0.99. Note math/rand.Zipf cannot
// express theta < 1, which is exactly the regime YCSB runs in.
type zipfian struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // pow(0.5, theta), hoisted out of next
}

// newZipfian precomputes the constants for n items with skew theta in (0,1).
func newZipfian(n int, theta float64) *zipfian {
	if n <= 0 || theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("harness: zipfian needs n>0 and 0<theta<1, got n=%d theta=%g", n, theta))
	}
	zetan := zeta(n, theta)
	zeta2 := zeta(2, theta)
	return &zipfian{
		n:     n,
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:  math.Pow(0.5, theta),
	}
}

// next draws one rank; rank 0 is the most popular.
func (z *zipfian) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	rank := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}

// p returns the theoretical probability of a rank (tests).
func (z *zipfian) p(rank int) float64 {
	return 1 / (math.Pow(float64(rank+1), z.theta) * z.zetan)
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n int, theta float64) float64 {
	s := 0.0
	for i := 1; i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

// scramble is the 64-bit FNV-1a hash of a rank, used to spread the zipfian
// head over the whole key space (YCSB's ScrambledZipfianGenerator).
func scramble(v uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}
