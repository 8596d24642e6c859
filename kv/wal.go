package kv

import (
	"fmt"
	"sync/atomic"

	"rhtm"
	"rhtm/cluster"
	"rhtm/containers"
	"rhtm/store"
	"rhtm/wal"
)

// Durability for the kv layer. OpenLocal and OpenCluster are the recovered
// constructors: they scan the WAL stream(s), replay the committed prefix
// into fresh stores — data entries with their original revisions, lease
// records (ordinary reserved-namespace keys, so they ride the same redo
// frames), revision clocks, and commit-event logs, so watches resume at the
// recovered revision — and return a DB whose every committed write is
// published to a group-commit writer before the operation returns.
//
// The commit-order argument is the store's own: a transaction's WAL record
// carries the revisions its writes stamped, and revisions ride the same
// per-store sequence word that orders the EventLog. The writer's sequence
// gate orders frames by those revisions, so log order equals commit order
// per partition on every engine — hardware or software path, the durable
// log is the same. That is the substitution thesis extended to durability.
//
// After an Open, all writes must go through the DB: setup-path writes
// (store.Put under a raw SetupTx) bypass the log and leave a revision hole
// the sequence gate waits on forever.

// ErrNoWAL reports a durability operation (Checkpoint) on a DB constructed
// without a log. Alias of the wal package's sentinel.
var ErrNoWAL = wal.ErrNoWAL

// WithSyncEvery relaxes the durability promise of an Open'd DB: the data
// streams sync only every n logged transactions instead of at every group
// commit, trading a bounded window of losable transactions for fewer
// barriers. The cluster's coordinator decision log and 2PC applies stay
// fully synchronous regardless — a decided cross-System transaction is
// never torn by a crash, whatever n is.
func WithSyncEvery(n int) Option {
	return func(o *dbOptions) { o.syncEvery = n }
}

// localWAL is a Local DB's durability state.
type localWAL struct {
	w   *wal.Writer
	seq atomic.Uint64 // transaction group ids (log-internal)
}

// copyBytes clones b (captured operations outlive the caller's buffers).
func copyBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// OpenLocal is NewLocal over a durable device: it recovers st from the
// device's committed prefix, then returns a DB that logs every committed
// transaction to it. The store must be freshly constructed (empty) or
// already populated through a previous incarnation of the same log —
// never written behind the log's back.
func OpenLocal(eng rhtm.Engine, st Storer, dev wal.Device, opts ...Option) (*Local, error) {
	sr, err := wal.OpenDevice(dev)
	if err != nil {
		return nil, err
	}
	if err := replayStorer(st, sr); err != nil {
		return nil, fmt.Errorf("kv: recovery replay: %w", err)
	}
	o := applyOptions(opts)
	db := NewLocal(eng, st, opts...)
	db.leaseSeq.Store(maxLeaseID(st))
	tx := containers.SetupTx(st.System())
	startRevs := map[int]uint64{}
	for i, l := range st.EventLogs() {
		startRevs[i] = l.Rev(tx) + 1
	}
	w := wal.NewWriter(dev, sr.NextLSN, startRevs, wal.Options{SyncEvery: o.syncEvery})
	w.SetMetrics(db.met.walBatch, db.met.walInterval)
	db.wal = &localWAL{w: w}
	st.SetWALStats(func() store.WALStats { return cluster.StoreWALStats(w.Stats()) })
	return db, nil
}

// Checkpoint implements DB: it snapshots the full store state (lease
// records included) in one engine transaction and writes it as an in-log
// checkpoint, bounding the next recovery's replay to the post-checkpoint
// suffix. Concurrent commits keep running; their log publication briefly
// queues behind the checkpoint.
func (db *Local) Checkpoint() error {
	if db.wal == nil {
		return ErrNoWAL
	}
	// The session is claimed before the writer freezes so a full pool of
	// committers blocked in publish cannot deadlock against the
	// checkpoint's own need for a thread.
	s := db.claim(nil)
	defer db.release(s)
	return db.wal.w.Checkpoint(func() ([]wal.Op, error) {
		var ops []wal.Op
		err := s.th.Atomic(func(tx rhtm.Tx) error {
			ops = ops[:0] // the body re-executes on engine aborts
			db.st.ScanMeta(tx, func(k, v []byte, rev, lease uint64) bool {
				ops = append(ops, wal.Op{
					Part: db.st.PartitionOf(k), Kind: wal.OpPut,
					Key: k, Value: v, Rev: rev, Lease: lease,
				})
				return true
			})
			return nil
		})
		return ops, err
	})
}

// replayStorer applies one stream's recovery view to a store: checkpoint
// entries first, then the committed transaction groups in log order. A
// host-side per-key revision guard makes the replay idempotent and
// order-tolerant — transactions that committed before a checkpoint's
// snapshot but flushed after it re-apply harmlessly.
func replayStorer(st Storer, sr wal.ScanResult) error {
	tx := containers.SetupTx(st.System())
	applied := map[string]uint64{}
	apply := func(op wal.Op) error {
		k := string(op.Key)
		if op.Rev <= applied[k] {
			return nil
		}
		applied[k] = op.Rev
		if op.Kind == wal.OpPut {
			return st.ReplayPut(tx, op.Key, op.Value, op.Rev, op.Lease)
		}
		st.ReplayDelete(tx, op.Key, op.Rev)
		return nil
	}
	for _, op := range sr.Checkpoint {
		if err := apply(op); err != nil {
			return err
		}
	}
	for _, g := range sr.Txns {
		for _, op := range g.Ops {
			if err := apply(op); err != nil {
				return err
			}
		}
	}
	// The rebuilt rings hold only the replayed writes' events — a
	// checkpoint folds overwritten revisions and deletes away — so the
	// recovered range is marked incomplete: a Watch(fromRev) reaching into
	// it gets an explicit EventLost, never a silently thinned history.
	for _, l := range st.EventLogs() {
		l.MarkHistoryFloor(tx, l.Rev(tx))
	}
	return nil
}

// maxLeaseID scans the recovered lease records for the largest granted id,
// so a recovered DB's grants never collide with logged leases.
func maxLeaseID(st Storer) uint64 {
	return maxLeaseIn(containers.SetupTx(st.System()), st)
}

// maxLeaseIn is maxLeaseID over the lease records as tx sees them.
func maxLeaseIn(tx rhtm.Tx, st Storer) uint64 {
	var max uint64
	for c := st.Cursor(tx, leaseKeyPrefix, leaseKeyPrefixEnd, 0); c.Next(); {
		if id := leaseIDOf(c.Key()); id > max {
			max = id
		}
	}
	return max
}

// --- cluster ---

// walDataName names System i's stream inside a Storage.
func walDataName(i int) string { return fmt.Sprintf("sys-%02d", i) }

// walCoordName names the coordinator decision log.
const walCoordName = "coord"

// OpenCluster is NewCluster over durable storage: one stream per System
// plus the coordinator decision log. Recovery replays each System's
// committed prefix independently, then resolves the coordinator's in-doubt
// cross-System transactions forward: a logged commit decision without its
// resolution mark is re-applied — skipping writes the System streams
// already hold (keyed by the cluster transaction id) — and re-logged
// durably before being marked resolved; a decision that never reached the
// log aborted by omission, its intents lost with the volatile memory.
func OpenCluster(c *cluster.Cluster, stg wal.Storage, opts ...Option) (*ClusterDB, error) {
	o := applyOptions(opts)
	n := c.NumSystems()
	dataDevs := make([]wal.Device, n)
	dataSRs := make([]wal.ScanResult, n)
	// applied records, per cross transaction, the keys whose phase-2
	// applies reached a System stream — the redo filter.
	applied := map[uint64]map[string]bool{}
	var maxTxID uint64
	for i := 0; i < n; i++ {
		dev, err := stg.Device(walDataName(i))
		if err != nil {
			return nil, err
		}
		sr, err := wal.OpenDevice(dev)
		if err != nil {
			return nil, err
		}
		if err := replayStorer(c.Node(i).Store(), sr); err != nil {
			return nil, fmt.Errorf("kv: system %d replay: %w", i, err)
		}
		for _, g := range sr.Txns {
			if !g.Cross {
				continue
			}
			keys := applied[g.TxID]
			if keys == nil {
				keys = map[string]bool{}
				applied[g.TxID] = keys
			}
			for _, op := range g.Ops {
				keys[string(op.Key)] = true
			}
		}
		if sr.MaxTxID > maxTxID {
			maxTxID = sr.MaxTxID
		}
		dataDevs[i], dataSRs[i] = dev, sr
	}
	coordDev, err := stg.Device(walCoordName)
	if err != nil {
		return nil, err
	}
	csr, err := wal.OpenDevice(coordDev)
	if err != nil {
		return nil, err
	}
	if csr.MaxTxID > maxTxID {
		maxTxID = csr.MaxTxID
	}

	// Writers come up before the redo pass so re-applied writes are logged
	// through the ordinary gate (their fresh revisions are next in line).
	dataWriters := make([]*wal.Writer, n)
	for i := 0; i < n; i++ {
		st := c.Node(i).Store()
		tx := containers.SetupTx(st.System())
		startRevs := map[int]uint64{0: st.Events().Rev(tx) + 1}
		dataWriters[i] = wal.NewWriter(dataDevs[i], dataSRs[i].NextLSN, startRevs,
			wal.Options{SyncEvery: o.syncEvery})
	}
	// The decision log is always fully synchronous: its sync is the 2PC
	// commit point.
	coordWriter := wal.NewWriter(coordDev, csr.NextLSN, nil, wal.Options{})

	inDoubt, resolved, err := resolveInDoubt(c, dataWriters, coordWriter, csr.Txns, csr.Marks, applied)
	if err != nil {
		return nil, err
	}

	c.RestoreTxID(maxTxID)
	c.AttachWAL(&cluster.WALSet{Data: dataWriters, Coord: coordWriter})
	db := NewCluster(c, opts...)
	// Recovery ran before the registry existed: record its outcome now,
	// and attach the group-commit histograms for the run ahead. Every
	// System's stream feeds the same pair — the batch-size and
	// sync-interval distributions are per DB, like the stats surface.
	db.met.walInDoubt.Add(inDoubt)
	db.met.walResolved.Add(resolved)
	for i := 0; i < n; i++ {
		dataWriters[i].SetMetrics(db.met.walBatch, db.met.walInterval)
	}
	var maxLease uint64
	for i := 0; i < n; i++ {
		if id := maxLeaseID(c.Node(i).Store()); id > maxLease {
			maxLease = id
		}
	}
	db.leaseSeq.Store(maxLease)
	return db, nil
}

// resolveInDoubt replays the coordinator's undecided commit decisions
// forward, in decision order: a logged decision without its resolution mark
// is re-applied — skipping writes the System streams already hold (the
// applied filter, keyed by cluster transaction id) — re-logged durably, and
// marked resolved. Shared by OpenCluster (crash recovery) and
// ClusterDB.Promote (failover), so the two paths cannot drift.
func resolveInDoubt(c *cluster.Cluster, dataWriters []*wal.Writer, coordWriter *wal.Writer,
	decisions []wal.TxnGroup, marks map[uint64]bool, applied map[uint64]map[string]bool) (inDoubt, resolved uint64, err error) {
	n := c.NumSystems()
	for _, g := range decisions {
		if marks[g.TxID] {
			continue
		}
		inDoubt++
		for _, op := range g.Ops {
			if applied[g.TxID][string(op.Key)] {
				continue
			}
			s := op.Part
			if s < 0 || s >= n {
				return 0, 0, fmt.Errorf("kv: decision %d names system %d of %d", g.TxID, s, n)
			}
			st := c.Node(s).Store()
			tx := containers.SetupTx(st.System())
			rec := wal.Op{Kind: op.Kind, Key: op.Key, Value: op.Value, Lease: op.Lease}
			if op.Kind == wal.OpPut {
				rev, err := st.PutStamped(tx, op.Key, op.Value, op.Lease)
				if err != nil {
					return 0, 0, fmt.Errorf("kv: redo decision %d: %w", g.TxID, err)
				}
				rec.Rev = rev
			} else {
				rev, ok := st.DeleteStamped(tx, op.Key)
				if !ok {
					continue // deleting an absent key: nothing to redo
				}
				rec.Rev = rev
			}
			if err := dataWriters[s].Commit(g.TxID, wal.FlagCross, []wal.Op{rec}); err != nil {
				return 0, 0, err
			}
			if err := dataWriters[s].Sync(); err != nil {
				return 0, 0, err
			}
		}
		if err := coordWriter.Mark(g.TxID, 0); err != nil {
			return 0, 0, err
		}
		resolved++
	}
	if err := coordWriter.Sync(); err != nil {
		return 0, 0, err
	}
	return inDoubt, resolved, nil
}

// Checkpoint implements DB: every System's stream gets a full-state
// checkpoint and the coordinator log truncates its resolved history (see
// cluster.Client.CheckpointWAL for the drain-and-order argument).
func (db *ClusterDB) Checkpoint() error {
	if db.c.WAL() == nil {
		return ErrNoWAL
	}
	s := db.claim(nil)
	defer db.release(s)
	return s.cl.CheckpointWAL()
}
