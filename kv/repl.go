package kv

import (
	"errors"
	"fmt"

	"rhtm"
	"rhtm/cluster"
	"rhtm/containers"
	"rhtm/store"
	"rhtm/wal"
)

// Follower reads and failover promotion for the kv layer. The repl package
// tails a primary DB's WAL stream(s) into replica Systems via the replay
// entry points; this file is the kv-side surface that makes those replicas
// useful: provably-stale reads (FollowerReader), the writer accessor the
// tailer hooks, and the Promote constructors that turn a caught-up replica
// into the stream's next primary under a new fenced epoch.

// ErrTooStale reports a ReadAt whose revision floor is above the replica's
// applied watermark: the follower cannot yet prove it has the caller's
// required prefix. Retry against the primary, or wait for the watermark.
var ErrTooStale = errors.New("kv: follower watermark below requested revision floor")

// ErrFenced reports a write on a DB whose WAL writer was fenced by a
// promotion — the deposed primary's commits, rejected before any frame
// reaches the device. Alias of the wal package's sentinel.
var ErrFenced = wal.ErrFenced

// FollowerReader is the follower-read surface. Both DB backends implement
// it, and the repl package's Follower exposes it for replicas.
//
// The staleness contract: the returned watermark is the owning partition's
// revision clock observed no earlier than the read itself, so rev <=
// watermark always — a follower read can never observe a revision above the
// watermark it advertises. Against the primary the watermark is simply the
// current clock; against a replica it is how far the apply pump has
// provably caught up, making staleness measurable with a primary GetRev.
type FollowerReader interface {
	// FollowerGet reads key, returning its value, the revision it was
	// written at, and the watermark the read is provably current to.
	// An absent key returns ErrNotFound with the watermark still valid.
	FollowerGet(key []byte) (value []byte, rev, watermark Revision, err error)
	// ReadAt is FollowerGet with a staleness bound: it fails with
	// ErrTooStale when the watermark has not reached floor, so a caller
	// holding a primary revision (from GetRev) can demand read-your-writes.
	ReadAt(key []byte, floor Revision) (value []byte, rev, watermark Revision, err error)
}

var (
	_ FollowerReader = (*Local)(nil)
	_ FollowerReader = (*ClusterDB)(nil)
)

// WAL returns the DB's group-commit writer, nil when the DB was constructed
// without a log — the replication layer's hook for append wakeups
// (Writer.SetOnAppend) and epoch fencing (Writer.Fence).
func (db *Local) WAL() *wal.Writer {
	if db.wal == nil {
		return nil
	}
	return db.wal.w
}

// WALDataName names System i's stream inside a wal.Storage — exported so
// the replication layer opens the same devices OpenCluster does.
func WALDataName(i int) string { return walDataName(i) }

// WALCoordName names the coordinator decision log inside a wal.Storage.
const WALCoordName = walCoordName

// FollowerGet implements FollowerReader. One engine transaction reads the
// key and its partition's revision clock together, so the pair is a
// consistent snapshot: the clock *is* the watermark, and rev <= watermark
// holds by construction on any engine.
func (db *Local) FollowerGet(key []byte) ([]byte, Revision, Revision, error) {
	return db.followerRead(key, 0)
}

// ReadAt implements FollowerReader.
func (db *Local) ReadAt(key []byte, floor Revision) ([]byte, Revision, Revision, error) {
	return db.followerRead(key, floor)
}

func (db *Local) followerRead(key []byte, floor Revision) ([]byte, Revision, Revision, error) {
	if reservedKey(key) {
		return nil, 0, 0, ErrReservedKey
	}
	s := db.claim(nil)
	defer db.release(s)
	var val []byte
	var rev, wm uint64
	var ok bool
	if err := s.th.Atomic(func(tx rhtm.Tx) error {
		val, rev, _, ok = db.st.Read(tx, key)
		wm = db.st.EventLogs()[db.st.PartitionOf(key)].Rev(tx)
		return nil
	}); err != nil {
		return nil, 0, 0, err
	}
	if wm < floor {
		return nil, 0, wm, fmt.Errorf("kv: watermark %d below floor %d: %w", wm, floor, ErrTooStale)
	}
	if !ok {
		return nil, 0, wm, ErrNotFound
	}
	return val, rev, wm, nil
}

// FollowerGet implements FollowerReader. The value and revision come from
// the ordinary intent-respecting read path first; the owning System's
// revision clock is read after, so watermark >= rev by ordering (the clock
// only advances).
func (db *ClusterDB) FollowerGet(key []byte) ([]byte, Revision, Revision, error) {
	return db.followerRead(key, 0)
}

// ReadAt implements FollowerReader.
func (db *ClusterDB) ReadAt(key []byte, floor Revision) ([]byte, Revision, Revision, error) {
	return db.followerRead(key, floor)
}

func (db *ClusterDB) followerRead(key []byte, floor Revision) ([]byte, Revision, Revision, error) {
	if reservedKey(key) {
		return nil, 0, 0, ErrReservedKey
	}
	sys := db.c.Router().SystemFor(key)
	if floor > 0 {
		// The floor must be checked against the clock BEFORE the value
		// read: clock >= floor then proves every commit up to floor is
		// already visible to the read that follows. (The watermark
		// returned to the caller is a second read, taken after — that
		// direction proves rev <= watermark.)
		wm, err := db.clockRev(sys)
		if err != nil {
			return nil, 0, 0, err
		}
		if wm < floor {
			return nil, 0, wm, fmt.Errorf("kv: watermark %d below floor %d: %w", wm, floor, ErrTooStale)
		}
	}
	var val []byte
	var rev Revision
	present := false
	err := db.Update(func(tx Txn) error {
		v, gerr := tx.Get(key)
		if errors.Is(gerr, ErrNotFound) {
			present = false
			return nil
		}
		if gerr != nil {
			return gerr
		}
		r, gerr := tx.Revision(key)
		if gerr != nil {
			return gerr
		}
		val, rev, present = v, r, true
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	wm, err := db.clockRev(sys)
	if err != nil {
		return nil, 0, 0, err
	}
	if !present {
		return nil, 0, wm, ErrNotFound
	}
	return val, rev, wm, nil
}

// clockRev reads System sys's revision clock on a lazily-registered
// dedicated thread (engine threads are not concurrency-safe, so the small
// pool is mutex-serialized — watermark reads are single-word transactions).
func (db *ClusterDB) clockRev(sys int) (Revision, error) {
	db.frMu.Lock()
	defer db.frMu.Unlock()
	if db.frThs == nil {
		db.frThs = make([]rhtm.Thread, db.c.NumSystems())
	}
	th := db.frThs[sys]
	if th == nil {
		th = db.c.Node(sys).Engine().NewThread()
		db.frThs[sys] = th
	}
	var wm uint64
	err := th.Atomic(func(tx rhtm.Tx) error {
		wm = db.c.Node(sys).Store().Events().Rev(tx)
		return nil
	})
	return wm, err
}

// --- promotion ---

// PromoteState carries what a promoted Local writer needs to continue the
// stream: the next LSN past the drained log, the new epoch, and the
// membership blob the epoch frame records. SyncEvery mirrors WithSyncEvery.
type PromoteState struct {
	NextLSN    uint64
	Epoch      uint64
	Membership []byte
	SyncEvery  int
}

// Promote attaches a WAL writer to a DB built without one — the failover
// step that turns a caught-up replica into the stream's primary. dev is the
// stream's device, already drained and truncated to a clean frame boundary
// (the repl layer's tailer cursor). The first frame of the new reign is a
// synced epoch record: durable evidence the old epoch's writer was fenced
// before any later frame.
//
// The caller must quiesce the DB first (no in-flight operations): promotion
// swaps the durability hook, marks the event-history floor, and seeds the
// sequence gate from the current clocks, none of which tolerates concurrent
// commits. The repl layer's Group.Promote provides that quiescence.
func (db *Local) Promote(dev wal.Device, s PromoteState) error {
	if db.wal != nil {
		return fmt.Errorf("kv: promote: DB already owns a log")
	}
	ses := db.claim(nil)
	defer db.release(ses)
	startRevs := map[int]uint64{}
	var maxLease uint64
	if err := ses.th.Atomic(func(tx rhtm.Tx) error {
		// The body re-executes on engine aborts: rebuild from scratch.
		for i, l := range db.st.EventLogs() {
			rev := l.Rev(tx)
			startRevs[i] = rev + 1
			// Replayed rings hold only what the stream carried (checkpoint
			// units fold overwritten history), so the recovered range is
			// marked incomplete — a Watch reaching into it gets an explicit
			// EventLost, exactly as crash recovery promises.
			l.MarkHistoryFloor(tx, rev)
		}
		maxLease = maxLeaseIn(tx, db.st)
		return nil
	}); err != nil {
		return err
	}
	w := wal.NewWriter(dev, s.NextLSN, startRevs, wal.Options{SyncEvery: s.SyncEvery})
	if err := w.AppendEpoch(s.Epoch, s.Membership); err != nil {
		return err
	}
	w.SetMetrics(db.met.walBatch, db.met.walInterval)
	db.wal = &localWAL{w: w}
	db.st.SetWALStats(func() store.WALStats { return cluster.StoreWALStats(w.Stats()) })
	if maxLease > db.leaseSeq.Load() {
		db.leaseSeq.Store(maxLease)
	}
	return nil
}

// ClusterPromoteState is PromoteState for a cluster: per-System stream
// cursors, the coordinator cursor, and the coordinator's recovery view as
// the follower's pumps tracked it live — undecided decisions are resolved
// forward exactly as OpenCluster resolves them after a crash.
type ClusterPromoteState struct {
	// DataNextLSN[i] is System i's next LSN; CoordNextLSN the decision
	// log's.
	DataNextLSN  []uint64
	CoordNextLSN uint64
	// MaxTxID floors the promoted coordinator's transaction-id counter.
	MaxTxID uint64
	// Decisions and Marks mirror wal.ScanResult.Txns/Marks for the decision
	// log: commit decisions after the last global mark, and the
	// per-transaction resolutions among them.
	Decisions []wal.TxnGroup
	Marks     map[uint64]bool
	// Applied records, per cross transaction, the keys whose phase-2 applies
	// reached a System stream — the redo filter, tracked live by the data
	// pumps from FlagCross groups.
	Applied map[uint64]map[string]bool

	Epoch      uint64
	Membership []byte
	SyncEvery  int
}

// Promote attaches WAL writers to a cluster DB built without them,
// resolving in-doubt cross-System decisions forward first — the cluster
// failover step. Devices must be drained and truncated to clean frame
// boundaries; the same quiescence contract as Local.Promote applies. Epoch
// frames are the first of the new reign on every stream (the coordinator's
// carries the membership blob).
func (db *ClusterDB) Promote(dataDevs []wal.Device, coordDev wal.Device, s ClusterPromoteState) error {
	if db.c.WAL() != nil {
		return fmt.Errorf("kv: promote: cluster already owns a log")
	}
	n := db.c.NumSystems()
	if len(dataDevs) != n || len(s.DataNextLSN) != n {
		return fmt.Errorf("kv: promote: %d devices / %d cursors for %d systems",
			len(dataDevs), len(s.DataNextLSN), n)
	}
	dataWriters := make([]*wal.Writer, n)
	for i := 0; i < n; i++ {
		st := db.c.Node(i).Store()
		tx := containers.SetupTx(st.System())
		rev := st.Events().Rev(tx)
		st.Events().MarkHistoryFloor(tx, rev)
		dataWriters[i] = wal.NewWriter(dataDevs[i], s.DataNextLSN[i],
			map[int]uint64{0: rev + 1}, wal.Options{SyncEvery: s.SyncEvery})
		if err := dataWriters[i].AppendEpoch(s.Epoch, nil); err != nil {
			return err
		}
	}
	coordWriter := wal.NewWriter(coordDev, s.CoordNextLSN, nil, wal.Options{})
	if err := coordWriter.AppendEpoch(s.Epoch, s.Membership); err != nil {
		return err
	}
	inDoubt, resolved, err := resolveInDoubt(db.c, dataWriters, coordWriter,
		s.Decisions, s.Marks, s.Applied)
	if err != nil {
		return err
	}
	db.c.RestoreTxID(s.MaxTxID)
	db.c.AttachWAL(&cluster.WALSet{Data: dataWriters, Coord: coordWriter})
	db.met.walInDoubt.Add(inDoubt)
	db.met.walResolved.Add(resolved)
	var maxLease uint64
	for i := 0; i < n; i++ {
		dataWriters[i].SetMetrics(db.met.walBatch, db.met.walInterval)
		if id := maxLeaseID(db.c.Node(i).Store()); id > maxLease {
			maxLease = id
		}
	}
	if maxLease > db.leaseSeq.Load() {
		db.leaseSeq.Store(maxLease)
	}
	return nil
}
