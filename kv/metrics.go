package kv

import (
	"errors"
	"time"

	"rhtm"
	"rhtm/cluster"
	"rhtm/obs"
	"rhtm/store"
)

// Metrics for the kv layer. Every DB carries an obs.Registry (a fresh one
// by default, a caller-supplied or nil one via WithMetrics) holding the
// host-side instruments — lease churn, watch loss, WAL group-commit
// amortization, 2PC phase timings — and DB.Metrics folds in the layers
// that keep their own counters: the engines' live commit/abort taxonomy
// (engine.Worker.Publish, once per completed Atomic) and the stores'
// transactional occupancy counters (read in one read-only transaction per
// call). The result is one flat-named obs.Snapshot whose schema is
// identical on Local and ClusterDB — cluster.* entries simply stay absent
// on a single System. See DESIGN.md §10 for the full name taxonomy.

// WithMetrics injects the instrument registry a DB reports through.
// Passing nil disables host-side instrumentation entirely: every
// instrument becomes the nil no-op of its kind, so the hot path pays one
// predicted branch per site and zero allocations (the overhead benchmark
// pins this down). The default — option absent — is a fresh private
// registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(o *dbOptions) { o.metrics, o.metricsSet = reg, true }
}

// kvMetrics holds the kv layer's pre-resolved instruments. Resolving at
// construction (rather than by name at use) is what keeps the hot path
// allocation-free; a nil registry yields nil instruments throughout and
// every site degrades to a no-op.
type kvMetrics struct {
	leaseGrants     *obs.Counter // lease.grants
	leaseKeepAlives *obs.Counter // lease.keepalives
	leaseRevokes    *obs.Counter // lease.revokes
	leaseExpired    *obs.Counter // lease.expired

	watchLost *obs.Counter // watch.events_lost: EventLost markers enqueued

	walBatch    *obs.Histogram // wal.batch_txns: transactions per sync barrier
	walInterval *obs.Histogram // wal.sync_interval_ns: wall time between syncs

	prepare2PC *obs.Histogram // cluster.2pc.prepare_ns
	finish2PC  *obs.Histogram // cluster.2pc.finish_ns

	walInDoubt  *obs.Counter // cluster.wal.indoubt: decisions found unresolved at recovery or promotion
	walResolved *obs.Counter // cluster.wal.resolved: decisions resolved forward then
}

func newKVMetrics(reg *obs.Registry) kvMetrics {
	return kvMetrics{
		leaseGrants:     reg.Counter("lease.grants"),
		leaseKeepAlives: reg.Counter("lease.keepalives"),
		leaseRevokes:    reg.Counter("lease.revokes"),
		leaseExpired:    reg.Counter("lease.expired"),
		watchLost:       reg.Counter("watch.events_lost"),
		walBatch:        reg.Histogram("wal.batch_txns"),
		walInterval:     reg.Histogram("wal.sync_interval_ns"),
		prepare2PC:      reg.Histogram("cluster.2pc.prepare_ns"),
		finish2PC:       reg.Histogram("cluster.2pc.finish_ns"),
		walInDoubt:      reg.Counter("cluster.wal.indoubt"),
		walResolved:     reg.Counter("cluster.wal.resolved"),
	}
}

// registerWatchDepth samples the hub's total pending-queue depth at
// snapshot time (cheaper than maintaining it per enqueue/dequeue).
func registerWatchDepth(reg *obs.Registry, hub *watchHub) {
	reg.GaugeFunc("watch.queue_depth", hub.queueDepth)
}

// mergeEngineStats renders an engine.Stats into the snapshot's counter
// map under the engine.* names. The fixed names are always present (a
// zero is informative); the per-reason abort breakdown includes only
// reasons that occurred, since the reason space is sparse.
func mergeEngineStats(out *obs.Snapshot, s rhtm.Stats) {
	c := out.Counters
	c[obs.Name("engine.commits", "path", "fast")] = s.FastCommits
	c[obs.Name("engine.commits", "path", "slow")] = s.SlowCommits
	c[obs.Name("engine.commits", "path", "slowslow")] = s.SlowSlowCommits
	c[obs.Name("engine.commits", "path", "readonly")] = s.ReadOnlyCommits
	c[obs.Name("engine.aborts", "path", "fast")] = s.FastAborts
	c[obs.Name("engine.aborts", "path", "slow")] = s.SlowAborts
	for i, n := range s.FastAbortsByReason {
		if n == 0 {
			continue
		}
		c[obs.Name("engine.aborts.fast", "reason", rhtm.AbortReason(i).String())] = n
	}
	c["engine.commit_htm_retries"] = s.CommitHTMRetries
	c["engine.rh2_fallbacks"] = s.RH2Fallbacks
	c["engine.all_software_writebacks"] = s.AllSoftwareWritebacks
	c["engine.user_errors"] = s.UserErrors
	c["engine.reads"] = s.Reads
	c["engine.writes"] = s.Writes
	c["engine.metadata_reads"] = s.MetadataReads
	c["engine.metadata_writes"] = s.MetadataWrites
}

// mergeStoreStats renders a store.Stats into the snapshot: occupancy as
// gauges (they go down), the attached WAL's counters under wal.* (absent
// on volatile DBs — a zero there would imply a log exists).
func mergeStoreStats(out *obs.Snapshot, s store.Stats) {
	g := out.Gauges
	g["store.live_keys"] = int64(s.LiveKeys)
	g["store.pending_intents"] = int64(s.PendingIntents)
	g["store.arena.capacity_words"] = int64(s.Arena.CapacityWords)
	g["store.arena.bumped_words"] = int64(s.Arena.BumpedWords)
	g["store.arena.free_words"] = int64(s.Arena.FreeListWords)
	g["store.arena.live_words"] = int64(s.Arena.LiveWords)
	w := s.WAL
	if w.Txns|w.Frames|w.Bytes|w.Syncs|w.DurableLSN|w.CheckpointLSN == 0 {
		return
	}
	c := out.Counters
	c["wal.txns"] = w.Txns
	c["wal.frames"] = w.Frames
	c["wal.bytes"] = w.Bytes
	c["wal.syncs"] = w.Syncs
	g["wal.durable_lsn"] = int64(w.DurableLSN)
	g["wal.checkpoint_lsn"] = int64(w.CheckpointLSN)
}

// mergeClusterCounters renders the 2PC protocol counters under cluster.*.
func mergeClusterCounters(out *obs.Snapshot, cc cluster.Counters) {
	c := out.Counters
	c["cluster.local_txns"] = cc.LocalTxns
	c["cluster.local_conflicts"] = cc.LocalConflicts
	c["cluster.cross_txns"] = cc.CrossTxns
	c["cluster.cross_commits"] = cc.CrossCommits
	c["cluster.cross_aborts"] = cc.CrossAborts
	c["cluster.prepare_conflicts"] = cc.PrepareConflicts
	c["cluster.intent_waits"] = cc.IntentWaits
	c["cluster.snapshot_scans"] = cc.SnapshotScans
	c["cluster.scan_retries"] = cc.ScanRetries
	c["cluster.phantom_conflicts"] = cc.PhantomConflicts
}

// tracerBox wraps a Tracer for atomic replacement (SetTracer may race
// with in-flight transactions reading the current tracer).
type tracerBox struct{ t obs.Tracer }

// AttemptSpan builds the span one Update attempt emits, for any DB that
// runs its closures through Retry. CommitRev is only meaningful on
// commits; conflict and error attempts report 0 per the Span contract.
func AttemptSpan(engine string, attempt int, err error, rev uint64, wall time.Duration, virtual uint64) obs.Span {
	sp := obs.Span{Engine: engine, Attempt: attempt, Wall: wall, VirtualTime: virtual}
	switch {
	case err == nil:
		sp.Outcome = obs.OutcomeCommit
		sp.CommitRev = rev
	case errors.Is(err, ErrConflict):
		sp.Outcome = obs.OutcomeConflict
	default:
		sp.Outcome = obs.OutcomeError
		sp.Err = err.Error()
	}
	return sp
}
