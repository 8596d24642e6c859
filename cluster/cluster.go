// Package cluster scales the transactional store past one simulated
// machine: a Cluster owns N fully independent rhtm.Systems — each with its
// own word memory, TM metadata, global clock, engine, and store.Store — and
// a Router hash-partitions the key space across them. Nothing is shared
// between Systems: no clock, no stripe array, no conflict detection. That
// is exactly the share-nothing setting the paper's protocols cannot cover
// (RH1/RH2 scale hybrid transactions *within* one coherence domain), so
// atomicity across Systems needs an explicit commit protocol.
//
// Transactions touching a single System — a Batch or a Txn — run as one
// local engine transaction (commitOn, the one single-System commit).
// Transactions spanning Systems run two-phase commit:
//
//   - Phase 1 visits each participant System in ascending id order (keys
//     in ascending byte order within each) and runs one prepare
//     transaction there: every read is re-validated against the value the
//     transaction observed, and every touched key gets an exclusive intent
//     record installed in that System's simulated memory (store.Store's
//     intent API). A pending intent by another transaction, or a failed
//     validation, aborts the prepare — all-or-nothing per participant,
//     because it is one engine transaction.
//   - The coordinator then decides: commit iff every participant
//     prepared — the commit point. With a WAL attached the commit decision
//     is synced to the coordinator log first, and that log is the only
//     decision record (recovery reads it; see wal.go).
//   - Phase 2 runs one transaction per participant applying (or, on
//     abort, discarding) the intents.
//
// Conforming accessors never read past a pending intent (they conflict), so
// no observer sees a cross-System transaction half-applied: between the
// decision and the last phase-2 apply, every undecided key is unreadable
// rather than stale. Deterministic acquisition order plus abort-on-conflict
// (prepares never block while holding intents) makes the protocol
// deadlock-free.
//
// Every Client operation is one attempt: the first conflict returns
// ErrConflict with nothing changed, and the package never retries or
// sleeps. Whether and when to try again is the caller's policy — kv.Retry
// is the one loop that decides it, for this backend and every other.
//
// See DESIGN.md §6 for what this simulation does and does not model about
// a real cluster (no network; crashes only as the WAL models them).
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rhtm"
	"rhtm/containers"
	"rhtm/obs"
	"rhtm/store"
)

// Config sizes a Cluster.
type Config struct {
	// Systems is the number of independent simulated machines (default 1).
	Systems int
	// DataWords is the per-System simulated heap size (default: ArenaWords
	// plus metadata slack).
	DataWords int
	// ArenaWords is each System's store arena capacity (default
	// store.DefaultArenaWords). Size it for records plus in-flight intents
	// (store.RecordFootprintWords / store.IntentFootprintWords).
	ArenaWords int
	// LogWords sizes each System's commit-event ring (default
	// store.DefaultLogWords) — the bounded log kv.Watch streams from.
	LogWords int
	// MaxThreads bounds clients per System engine (default 64; one engine
	// thread per System is created for every NewClient call).
	MaxThreads int
	// NewEngine builds each System's engine (default: RH1 with the paper's
	// Mixed 100 configuration).
	NewEngine func(s *rhtm.System) (rhtm.Engine, error)
}

// Node is one member System of a Cluster.
type Node struct {
	id  int
	sys *rhtm.System
	eng rhtm.Engine
	st  *store.Store
}

// ID returns the node's position in the cluster (0-based).
func (n *Node) ID() int { return n.id }

// System returns the node's simulated machine.
func (n *Node) System() *rhtm.System { return n.sys }

// Engine returns the node's transactional-memory engine.
func (n *Node) Engine() rhtm.Engine { return n.eng }

// Store returns the node's key-value store.
func (n *Node) Store() *store.Store { return n.st }

// Router assigns keys to Systems by the same stable fnv1a hash the store's
// shard layer uses. Routing is a pure function of the key bytes: no
// simulated accesses, identical placement across runs and processes.
type Router struct {
	systems int
}

// SystemFor returns the id of the System owning key.
func (r Router) SystemFor(key []byte) int {
	return int(store.KeyHash(key) % uint64(r.systems))
}

// Systems returns the number of Systems routed over.
func (r Router) Systems() int { return r.systems }

// Cluster is the share-nothing multi-System store.
type Cluster struct {
	cfg    Config
	router Router
	nodes  []*Node

	nextTxID atomic.Uint64

	// wal, when attached, holds the durability streams; walMu is the
	// checkpoint drain: cross-System commits hold it in read mode from
	// decision to resolution mark, CheckpointWAL in write mode (see
	// wal.go).
	wal   *WALSet
	walMu sync.RWMutex

	// Protocol counters (host-side; simulated costs are in engine stats).
	localTxns        atomic.Uint64 // single-System transactions committed
	localConflicts   atomic.Uint64 // single-System commits refused
	crossTxns        atomic.Uint64 // 2PC attempts started
	crossCommits     atomic.Uint64 // 2PC decisions: commit
	crossAborts      atomic.Uint64 // 2PC decisions: abort (prepare conflict)
	intentWaits      atomic.Uint64 // operations turned away by a pending intent
	prepareConflicts atomic.Uint64 // individual prepare transactions refused
	snapshotScans    atomic.Uint64 // validated snapshot scans returned
	scanRetries      atomic.Uint64 // scans torn by a concurrent commit
	phantomConflicts atomic.Uint64 // commits refused by scan-range revalidation

	// Optional 2PC phase histograms (SetMetrics): wall nanoseconds of the
	// prepare sweep and the phase-2 apply sweep of each cross-System
	// commit. nil instruments are no-ops.
	prepareHist *obs.Histogram
	finishHist  *obs.Histogram
}

// New builds a cluster of cfg.Systems independent machines. Call during
// single-threaded setup.
func New(cfg Config) (*Cluster, error) {
	if cfg.Systems <= 0 {
		cfg.Systems = 1
	}
	if cfg.ArenaWords <= 0 {
		cfg.ArenaWords = store.DefaultArenaWords
	}
	if cfg.LogWords <= 0 {
		cfg.LogWords = store.DefaultLogWords
	}
	if cfg.DataWords <= 0 {
		cfg.DataWords = cfg.ArenaWords + cfg.LogWords + 1<<13
	}
	if cfg.NewEngine == nil {
		cfg.NewEngine = func(s *rhtm.System) (rhtm.Engine, error) {
			return rhtm.NewRH1(s, rhtm.DefaultRH1Options()), nil
		}
	}
	c := &Cluster{cfg: cfg, router: Router{systems: cfg.Systems}}
	for i := 0; i < cfg.Systems; i++ {
		scfg := rhtm.DefaultConfig(cfg.DataWords)
		if cfg.MaxThreads > 0 {
			scfg.MaxThreads = cfg.MaxThreads
		}
		sys, err := rhtm.NewSystem(scfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: system %d: %w", i, err)
		}
		eng, err := cfg.NewEngine(sys)
		if err != nil {
			return nil, fmt.Errorf("cluster: engine %d: %w", i, err)
		}
		c.nodes = append(c.nodes, &Node{
			id:  i,
			sys: sys,
			eng: eng,
			st:  store.New(sys, store.Options{ArenaWords: cfg.ArenaWords, LogWords: cfg.LogWords}),
		})
	}
	return c, nil
}

// MustNew is New for setup code.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NumSystems returns the cluster size.
func (c *Cluster) NumSystems() int { return len(c.nodes) }

// Node returns the i-th member System.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Router returns the key→System placement function.
func (c *Cluster) Router() Router { return c.router }

// Load stores key→value directly in the owning System, bypassing the
// transaction machinery. Single-threaded setup only.
func (c *Cluster) Load(key, value []byte) error {
	n := c.nodes[c.router.SystemFor(key)]
	return n.st.Put(containers.SetupTx(n.sys), key, value)
}

// Peek reads key's committed value with raw memory access. Only call while
// no transactions are in flight (verification).
func (c *Cluster) Peek(key []byte) ([]byte, bool) {
	n := c.nodes[c.router.SystemFor(key)]
	return n.st.Get(containers.SetupTx(n.sys), key)
}

// Len returns the number of live keys across all Systems. Quiescent
// verification only.
func (c *Cluster) Len() int {
	total := 0
	for _, n := range c.nodes {
		total += n.st.Len(containers.SetupTx(n.sys))
	}
	return total
}

// Validate checks every System's store invariants and that no intent is
// left pending — after a quiescent point every decided transaction must
// have discharged its intents.
func (c *Cluster) Validate() error {
	for _, n := range c.nodes {
		if err := n.st.Validate(); err != nil {
			return fmt.Errorf("cluster: system %d: %w", n.id, err)
		}
		if p := n.st.PendingIntents(containers.SetupTx(n.sys)); p != 0 {
			return fmt.Errorf("cluster: system %d has %d orphaned intents", n.id, p)
		}
	}
	return nil
}

// SetMetrics attaches the 2PC phase-timing histograms: prepare receives
// each cross commit's phase-1 sweep duration in nanoseconds, finish the
// phase-2 apply sweep. Either may be nil. Call before clients run.
func (c *Cluster) SetMetrics(prepare, finish *obs.Histogram) {
	c.prepareHist = prepare
	c.finishHist = finish
}

// Counters is the live (atomically readable) part of Stats: the
// host-side protocol counters. Unlike Stats — which merges quiescent-only
// engine snapshots and store counters — Counters is safe to call while
// clients are running.
type Counters struct {
	// LocalTxns / LocalConflicts count single-System transactions
	// committed / refused at commit.
	LocalTxns, LocalConflicts uint64
	// CrossTxns counts 2PC attempts; CrossCommits/CrossAborts the
	// decisions; PrepareConflicts individual refused prepares;
	// IntentWaits operations turned away by a pending intent.
	CrossTxns, CrossCommits, CrossAborts, PrepareConflicts, IntentWaits uint64
	// SnapshotScans counts validated snapshot scans returned; ScanRetries
	// counts scans whose two passes a concurrent commit tore apart;
	// PhantomConflicts counts commits refused because a key entered a range
	// the transaction had scanned.
	SnapshotScans, ScanRetries, PhantomConflicts uint64
}

// Counters snapshots the protocol counters without quiescence.
func (c *Cluster) Counters() Counters {
	return Counters{
		LocalTxns:        c.localTxns.Load(),
		LocalConflicts:   c.localConflicts.Load(),
		CrossTxns:        c.crossTxns.Load(),
		CrossCommits:     c.crossCommits.Load(),
		CrossAborts:      c.crossAborts.Load(),
		PrepareConflicts: c.prepareConflicts.Load(),
		IntentWaits:      c.intentWaits.Load(),
		SnapshotScans:    c.snapshotScans.Load(),
		ScanRetries:      c.scanRetries.Load(),
		PhantomConflicts: c.phantomConflicts.Load(),
	}
}

// Stats aggregates engine activity and protocol counters across the
// cluster.
type Stats struct {
	// Engines merges every System's engine statistics.
	Engines rhtm.Stats
	// PerSystemAccesses is each System's simulated shared-access count
	// (data + metadata). Systems run in parallel, so the maximum is the
	// simulated critical path of a run.
	PerSystemAccesses []uint64
	// Store sums every System's store counters.
	Store store.Stats
	// Counters are the protocol counters, as Cluster.Counters reads them.
	Counters
}

// Stats snapshots the cluster. Only call while no clients are inside an
// operation.
func (c *Cluster) Stats() Stats {
	out := Stats{Counters: c.Counters(), PerSystemAccesses: make([]uint64, len(c.nodes))}
	for i, n := range c.nodes {
		es := n.eng.Snapshot()
		out.Engines.Add(es)
		out.PerSystemAccesses[i] = es.Reads + es.Writes + es.MetadataReads + es.MetadataWrites
		out.Store.Add(n.st.Stats(containers.SetupTx(n.sys)))
	}
	return out
}
