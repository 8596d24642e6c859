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
//
// Promotion (repl.go) is the same recovery minus the replay: a replica's
// apply pumps already hold every unit, so Promote opens the drained devices
// with the same scan and attaches writers through the same setup.

// ErrNoWAL reports a durability operation (Checkpoint) on a DB constructed
// without a log. Alias of the wal package's sentinel.
var ErrNoWAL = wal.ErrNoWAL

// WithSyncEvery relaxes the durability promise of an Open'd DB: the data
// streams sync only every n logged transactions instead of at every group
// commit, trading a bounded window of losable transactions for fewer
// barriers. The cluster's coordinator decision log and 2PC applies stay
// fully synchronous regardless — a decided cross-System transaction is
// never torn by a crash, whatever n is. On a replica it sets the cadence of
// the writers its promotion attaches.
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
	db := NewLocal(eng, st, opts...)
	db.attachWAL(dev, sr.NextLSN)
	return db, nil
}

// attachWAL is the writer setup OpenLocal and Promote share: the stream's
// writer continues at nextLSN, the group-commit histograms attach, and the
// lease-id counter is floored past every logged lease.
func (db *Local) attachWAL(dev wal.Device, nextLSN uint64) *wal.Writer {
	w := openWriter(db.st, dev, nextLSN, db.syncEvery)
	w.SetMetrics(db.met.walBatch, db.met.walInterval)
	db.wal = &localWAL{w: w}
	db.st.SetWALStats(func() store.WALStats { return cluster.StoreWALStats(w.Stats()) })
	db.floorLeaseSeq(db.st)
	return w
}

// openWriter builds a stream's writer over st once st holds the stream's
// committed prefix. The sequence gate starts one past each partition's
// clock. The rebuilt rings hold only the writes the stream carried — a
// checkpoint folds overwritten revisions and deletes away — so the
// recovered range is marked incomplete: a Watch(fromRev) reaching into it
// gets an explicit EventLost, never a silently thinned history.
func openWriter(st Storer, dev wal.Device, nextLSN uint64, syncEvery int) *wal.Writer {
	tx := containers.SetupTx(st.System())
	startRevs := map[int]uint64{}
	for i, l := range st.EventLogs() {
		rev := l.Rev(tx)
		l.MarkHistoryFloor(tx, rev)
		startRevs[i] = rev + 1
	}
	return wal.NewWriter(dev, nextLSN, startRevs, wal.Options{SyncEvery: syncEvery})
}

// floorLeaseSeq scans st's lease records for the largest granted id, so a
// recovered or promoted DB's grants never collide with logged leases.
func (db *core[S]) floorLeaseSeq(st Storer) {
	tx := containers.SetupTx(st.System())
	for c := st.Cursor(tx, leaseKeyPrefix, leaseKeyPrefixEnd, 0); c.Next(); {
		if id := leaseIDOf(c.Key()); id > db.leaseSeq.Load() {
			db.leaseSeq.Store(id)
		}
	}
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
	return nil
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
	devs := make([]wal.Device, c.NumSystems()+1)
	for i := range devs {
		name := walCoordName
		if i < c.NumSystems() {
			name = walDataName(i)
		}
		dev, err := stg.Device(name)
		if err != nil {
			return nil, err
		}
		devs[i] = dev
	}
	srs, err := openDevices(devs)
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.NumSystems(); i++ {
		if err := replayStorer(c.Node(i).Store(), srs[i]); err != nil {
			return nil, fmt.Errorf("kv: system %d replay: %w", i, err)
		}
	}
	db := NewCluster(c, opts...)
	if err := db.attachWAL(devs, srs, 0, nil); err != nil {
		return nil, err
	}
	return db, nil
}

// openDevices opens and scans each device in turn (wal.OpenDevice).
func openDevices(devs []wal.Device) ([]wal.ScanResult, error) {
	srs := make([]wal.ScanResult, len(devs))
	for i, dev := range devs {
		sr, err := wal.OpenDevice(dev)
		if err != nil {
			return nil, err
		}
		srs[i] = sr
	}
	return srs, nil
}

// attachWAL is the writer setup OpenCluster and Promote share, over the
// scanned devices: the Systems' streams, then the coordinator decision log
// last. Each System's writer continues its stream; a promotion (epoch > 0)
// makes an epoch frame the first of the new reign on every stream, the
// coordinator's carrying the membership blob. Then the in-doubt decisions
// are resolved forward through the new writers, the transaction-id counter
// is floored past every logged id, and the histograms and lease floor
// attach.
func (db *ClusterDB) attachWAL(devs []wal.Device, srs []wal.ScanResult, epoch uint64, membership []byte) error {
	n := db.c.NumSystems()
	ws := &cluster.WALSet{Data: make([]*wal.Writer, n)}
	for i := range ws.Data {
		ws.Data[i] = openWriter(db.c.Node(i).Store(), devs[i], srs[i].NextLSN, db.syncEvery)
	}
	// The decision log is always fully synchronous: its sync is the 2PC
	// commit point.
	ws.Coord = wal.NewWriter(devs[n], srs[n].NextLSN, nil, wal.Options{})
	if epoch > 0 {
		for _, w := range ws.Data {
			if err := w.AppendEpoch(epoch, nil); err != nil {
				return err
			}
		}
		if err := ws.Coord.AppendEpoch(epoch, membership); err != nil {
			return err
		}
	}
	inDoubt, maxTxID := recoveryView(srs[:n], srs[n])
	if err := resolveInDoubt(db.c, ws, inDoubt); err != nil {
		return err
	}
	db.c.RestoreTxID(maxTxID)
	db.c.AttachWAL(ws)
	db.met.walInDoubt.Add(uint64(len(inDoubt)))
	db.met.walResolved.Add(uint64(len(inDoubt)))
	// Every System's stream feeds the same pair of histograms: the
	// batch-size and sync-interval distributions are per DB, like the stats
	// surface.
	for i, w := range ws.Data {
		w.SetMetrics(db.met.walBatch, db.met.walInterval)
		db.floorLeaseSeq(db.c.Node(i).Store())
	}
	return nil
}

// recoveryView reads what recovery and promotion resolve off a cluster's
// scans: the in-doubt decisions — commit decisions without a resolution
// mark, in decision order — each cut down to the writes no System stream
// holds yet, and the floor for the transaction-id counter. The redo filter
// is keyed by cluster transaction id and sees only the groups after each
// stream's checkpoint. That suffices: a checkpoint holds the 2PC drain lock
// (cluster.Client.CheckpointWAL), so an unmarked decision's applies all
// follow the last checkpoint of every stream (DESIGN.md §12).
func recoveryView(data []wal.ScanResult, coord wal.ScanResult) (inDoubt []wal.TxnGroup, maxTxID uint64) {
	applied := map[uint64]map[string]bool{}
	for _, g := range coord.Txns {
		if !coord.Marks[g.TxID] {
			applied[g.TxID] = map[string]bool{}
		}
	}
	maxTxID = coord.MaxTxID
	for _, sr := range data {
		maxTxID = max(maxTxID, sr.MaxTxID)
		for _, g := range sr.Txns {
			if keys := applied[g.TxID]; g.Cross && keys != nil {
				for _, op := range g.Ops {
					keys[string(op.Key)] = true
				}
			}
		}
	}
	for _, g := range coord.Txns {
		keys := applied[g.TxID]
		if keys == nil {
			continue
		}
		redo := wal.TxnGroup{TxID: g.TxID, Cross: true}
		for _, op := range g.Ops {
			if !keys[string(op.Key)] {
				redo.Ops = append(redo.Ops, op)
			}
		}
		inDoubt = append(inDoubt, redo)
	}
	return inDoubt, maxTxID
}

// resolveInDoubt redoes the in-doubt decisions forward, in decision order:
// each missing write is applied with a fresh revision and logged durably on
// its System's stream, then the decision is marked resolved.
func resolveInDoubt(c *cluster.Cluster, ws *cluster.WALSet, inDoubt []wal.TxnGroup) error {
	for _, g := range inDoubt {
		for _, op := range g.Ops {
			s := op.Part
			if s < 0 || s >= c.NumSystems() {
				return fmt.Errorf("kv: decision %d names system %d of %d", g.TxID, s, c.NumSystems())
			}
			st := c.Node(s).Store()
			tx := containers.SetupTx(st.System())
			rec := wal.Op{Kind: op.Kind, Key: op.Key, Value: op.Value, Lease: op.Lease}
			if op.Kind == wal.OpPut {
				rev, err := st.PutStamped(tx, op.Key, op.Value, op.Lease)
				if err != nil {
					return fmt.Errorf("kv: redo decision %d: %w", g.TxID, err)
				}
				rec.Rev = rev
			} else {
				rev, ok := st.DeleteStamped(tx, op.Key)
				if !ok {
					continue // deleting an absent key: nothing to redo
				}
				rec.Rev = rev
			}
			if err := ws.Data[s].Commit(g.TxID, wal.FlagCross, []wal.Op{rec}); err != nil {
				return err
			}
			if err := ws.Data[s].Sync(); err != nil {
				return err
			}
		}
		if err := ws.Coord.Mark(g.TxID, 0); err != nil {
			return err
		}
	}
	return ws.Coord.Sync()
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
