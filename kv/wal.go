package kv

import (
	"fmt"

	"rhtm"
	"rhtm/cluster"
	"rhtm/containers"
	"rhtm/wal"
)

// Durability for the kv layer. Both backends log to one durable layout
// (Stream): the data streams, then the coordinator decision log when the
// DB has one — Local is one data stream "wal", a cluster "sys-00" …
// "sys-(n-1)" then "coord". Each step is written once over it: recovery
// (scan every device, replay each data stream into its fresh store —
// entries at their original revisions, lease records, clocks and event
// logs, so watches resume at the recovered revision — then attach the
// writers: attachWAL), promotion (Promote, repl.go: the same attachWAL
// without the replay) and Checkpoint. A recovered DB publishes every
// committed write to a group-commit writer before the operation returns.
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
// never torn by a crash, whatever n is. On a replica it sets the cadence of
// the writers its promotion attaches.
func WithSyncEvery(n int) Option {
	return func(o *dbOptions) { o.syncEvery = n }
}

// Stream is one stream of a DB's durable layout: the name of its device in
// a wal.Storage and, for a data stream, the engine and store its units
// replay into. The coordinator decision log has neither — its units carry
// no store state — and comes last.
type Stream struct {
	Name   string
	Engine rhtm.Engine
	Store  Storer
}

// layout is a DB's durable layout, its streams in log order.
type layout []Stream

// data returns the data streams: all but a trailing coordinator.
func (l layout) data() layout {
	if n := len(l); n > 0 && l[n-1].Store == nil {
		return l[:n-1]
	}
	return l
}

// Layout returns the DB's durable layout: its data streams in log order,
// then the coordinator decision log when the DB has one. A replica tails
// the same streams into its own stores.
func (db *core[S]) Layout() []Stream { return db.lay }

// WAL returns the DB's writer set, nil when the DB was constructed without
// a log — the replication layer's hook for append wakeups
// (Writer.SetOnAppend) and epoch fencing (Writer.Fence).
func (db *core[S]) WAL() *wal.Set { return db.ws }

// OpenLocal is NewLocal over a durable device: it recovers st from the
// device's committed prefix, then returns a DB that logs every committed
// transaction to it. The store must be freshly constructed (empty) or
// already populated through a previous incarnation of the same log —
// never written behind the log's back.
func OpenLocal(eng rhtm.Engine, st Storer, dev wal.Device, opts ...Option) (*Local, error) {
	db := NewLocal(eng, st, opts...)
	if err := db.attachWAL([]wal.Device{dev}, 0, nil); err != nil {
		return nil, err
	}
	return db, nil
}

// OpenCluster is NewCluster over durable storage: the layout's streams are
// stg's devices of those names. Each System's committed prefix replays
// independently, then the coordinator's in-doubt cross-System
// transactions resolve forward: a logged commit decision without its
// resolution mark is re-applied — skipping writes the System streams
// already hold — and marked resolved; a decision that never reached the
// log aborted by omission, its intents lost with the volatile memory.
func OpenCluster(c *cluster.Cluster, stg wal.Storage, opts ...Option) (*ClusterDB, error) {
	db := NewCluster(c, opts...)
	devs := make([]wal.Device, len(db.lay))
	for i, s := range db.lay {
		dev, err := stg.Device(s.Name)
		if err != nil {
			return nil, err
		}
		devs[i] = dev
	}
	if err := db.attachWAL(devs, 0, nil); err != nil {
		return nil, err
	}
	return db, nil
}

// attachWAL attaches a writer set over the layout's devices, in order —
// the one setup recovery (epoch 0) and promotion (Promote) share. Each
// device is opened with the scan every recovery runs, a torn tail
// truncated. Recovery replays each data stream's committed prefix into its
// store; a promoted replica already holds it, its pumps having applied
// every unit, and makes an epoch frame the first of the new reign on every
// stream instead, the last one's carrying the membership blob. Each data
// stream's writer continues its stream, the coordinator's follows when
// there is one, and the in-doubt decisions are resolved forward through
// them (there are none without a coordinator). Then the histograms, store
// counters and lease floor attach, and the backend binds the set (a
// cluster's commit path logs through it, its transaction-id counter
// floored past every logged id).
func (db *core[S]) attachWAL(devs []wal.Device, epoch uint64, membership []byte) error {
	data := db.lay.data()
	ws := &wal.Set{}
	srs := make([]wal.ScanResult, len(devs)+1) // a zero coordinator scan when there is none
	for i, dev := range devs {
		sr, err := wal.OpenDevice(dev)
		if err != nil {
			return err
		}
		srs[i] = sr
		if i == len(data) {
			// The decision log is always fully synchronous: its sync is the
			// 2PC commit point.
			ws.Coord = wal.NewWriter(dev, sr.NextLSN, nil, wal.Options{})
			break
		}
		if epoch == 0 {
			if err := replayStorer(data[i].Store, sr); err != nil {
				return fmt.Errorf("kv: replay %s: %w", data[i].Name, err)
			}
		}
		ws.Data = append(ws.Data, openWriter(data[i].Store, dev, sr.NextLSN, db.syncEvery))
	}
	if epoch > 0 {
		all := ws.Writers()
		for i, w := range all {
			var blob []byte
			if i == len(all)-1 {
				blob = membership
			}
			if err := w.AppendEpoch(epoch, blob); err != nil {
				return err
			}
		}
	}
	inDoubt, maxTxID := recoveryView(srs[:len(data)], srs[len(data)])
	if err := resolveInDoubt(data, ws, inDoubt); err != nil {
		return err
	}
	db.met.walInDoubt.Add(uint64(len(inDoubt)))
	// Every data stream feeds the same pair of histograms: the batch-size
	// and sync-interval distributions are per DB, like the stats surface.
	for i, w := range ws.Data {
		w.SetMetrics(db.met.walBatch, db.met.walInterval)
		data[i].Store.SetWALStats(w.Stats)
		db.floorLeaseSeq(data[i].Store)
	}
	db.ws = ws
	if db.bind != nil {
		db.bind(ws, maxTxID)
	}
	return nil
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

// Checkpoint implements DB: every data stream gets a full-state checkpoint
// (lease records included), each snapshotted in one engine transaction,
// bounding the next recovery's replay to the post-checkpoint suffix; a
// coordinator brackets them with its sync and global mark
// (wal.Set.Checkpoint). Concurrent commits keep running; their log
// publication briefly queues behind the checkpoint, and on a cluster 2PC
// decisions pause for it (cluster.Client.CheckpointWAL).
func (db *core[S]) Checkpoint() error {
	if db.ws == nil {
		return ErrNoWAL
	}
	// The session is claimed before the writers freeze so a full pool of
	// committers blocked in publish cannot deadlock against the
	// checkpoint's own need for a thread.
	s := db.claim(nil)
	defer db.release(s)
	return s.checkpoint(db.ws)
}

// replayStorer applies one stream's recovery view to a store under its
// setup transaction: the checkpoint, then the committed transaction groups
// in log order, each through Replay — the replica's apply. Replay's record
// guard alone makes this exact (DESIGN.md §12): groups that committed
// before the checkpoint's snapshot but flushed after it re-apply
// harmlessly, and per partition log order is revision order while a
// checkpoint holds only puts, so no put of a key follows a higher-revision
// delete of it.
func replayStorer(st Storer, sr wal.ScanResult) error {
	tx := containers.SetupTx(st.System())
	if _, err := st.Replay(tx, sr.Checkpoint); err != nil {
		return err
	}
	for _, g := range sr.Txns {
		if _, err := st.Replay(tx, g.Ops); err != nil {
			return err
		}
	}
	return nil
}

// recoveryView reads what recovery and promotion resolve off the scans of
// the data streams and the coordinator (zero without one): the in-doubt
// decisions — commit decisions without a resolution mark, in decision
// order — each cut down to the writes no data stream holds yet, and the
// floor for a cluster's transaction-id counter. The redo filter is keyed by
// cluster transaction id and sees only the groups after each stream's
// checkpoint. That suffices: a checkpoint holds the 2PC drain lock
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
// its data stream, then the decision is marked resolved.
func resolveInDoubt(data layout, ws *wal.Set, inDoubt []wal.TxnGroup) error {
	for _, g := range inDoubt {
		for _, op := range g.Ops {
			s := op.Part
			if s < 0 || s >= len(data) {
				return fmt.Errorf("kv: decision %d names stream %d of %d", g.TxID, s, len(data))
			}
			st := data[s].Store
			rec, err := st.Write(containers.SetupTx(st.System()), op)
			if err != nil {
				return fmt.Errorf("kv: redo decision %d: %w", g.TxID, err)
			}
			if rec.Rev == 0 {
				continue // deleting an absent key: nothing to redo
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
	if ws.Coord == nil {
		return nil
	}
	return ws.Coord.Sync()
}
