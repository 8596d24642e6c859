package kv

import (
	"time"

	"rhtm"
	"rhtm/obs"
	"rhtm/store"
	"rhtm/wal"
)

// Storer is the transaction-level store surface a Local DB drives; both
// store.Store and store.Sharded satisfy it. The stamped and replay entry
// points, the partition map, and the metadata scan are the durability
// layer's hooks: partitions index EventLogs() — one revision clock each —
// and PartitionOf names the clock a key's revisions come from.
type Storer interface {
	Get(tx rhtm.Tx, key []byte) ([]byte, bool)
	Read(tx rhtm.Tx, key []byte) (value []byte, rev, lease uint64, ok bool)
	PutLease(tx rhtm.Tx, key, value []byte, lease uint64) error
	PutStamped(tx rhtm.Tx, key, value []byte, lease uint64) (uint64, error)
	Delete(tx rhtm.Tx, key []byte) bool
	DeleteStamped(tx rhtm.Tx, key []byte) (uint64, bool)
	ReplayPut(tx rhtm.Tx, key, value []byte, rev, lease uint64) error
	ReplayDelete(tx rhtm.Tx, key []byte, rev uint64) bool
	Cursor(tx rhtm.Tx, start, end []byte, hint int) *store.Cursor
	ScanMeta(tx rhtm.Tx, fn func(key, value []byte, rev, lease uint64) bool)
	Len(tx rhtm.Tx) int
	EventLogs() []*store.EventLog
	PartitionOf(key []byte) int
	System() *rhtm.System
	SetWALStats(fn func() store.WALStats)
	Stats(tx rhtm.Tx) store.Stats
}

var (
	_ Storer = (*store.Store)(nil)
	_ Storer = (*store.Sharded)(nil)
)

// Option configures a DB at construction.
type Option func(*dbOptions)

type dbOptions struct {
	clock       Clock
	syncEvery   int
	metrics     *obs.Registry
	metricsSet  bool // distinguishes WithMetrics(nil) from the default
	traceSample int
}

// WithClock injects the virtual-time source lease deadlines are measured
// against. The default is a fresh ManualClock (time stands still until the
// caller advances it).
func WithClock(c Clock) Option {
	return func(o *dbOptions) { o.clock = c }
}

func applyOptions(opts []Option) dbOptions {
	o := dbOptions{}
	for _, fn := range opts {
		fn(&o)
	}
	if o.clock == nil {
		o.clock = NewManualClock()
	}
	if !o.metricsSet {
		o.metrics = obs.NewRegistry()
	}
	return o
}

// Local implements DB over one simulated System: an rhtm engine supplies
// the transactions, a store.Store or store.Sharded supplies the data. Every
// DB operation is one engine transaction (Atomic), so atomicity, isolation
// and rollback come from whichever engine — RH1, RH2, TL2, the hybrids —
// the System runs. Revisions and watch events come from the stores' own
// commit logs; leases live in the reserved keyspace (see the package
// comment).
//
// Local is safe for concurrent use by any number of goroutines: engine
// threads are not, so Local multiplexes callers over the core's bounded
// session pool, one engine thread per session.
type Local struct {
	core[*localSession]

	eng rhtm.Engine
	st  Storer

	// wal, when non-nil, is the durability hook: committed transactions'
	// captured redo operations are published to the group-commit writer
	// before the operation returns (see OpenLocal and wal.go).
	wal *localWAL
}

// NewLocal builds a DB over an engine and a store on the same System. Call
// during single-threaded setup.
func NewLocal(eng rhtm.Engine, st Storer, opts ...Option) *Local {
	db := &Local{eng: eng, st: st}
	db.init(applyOptions(opts), db,
		func() *localSession {
			return &localSession{db: db, th: eng.NewThread(), lt: localTxn{st: st}}
		},
		func() []logSource {
			// One dedicated thread serves every ring: they share the System.
			th := eng.NewThread()
			var sources []logSource
			for _, l := range st.EventLogs() {
				sources = append(sources, logSource{log: l, run: th.Atomic})
			}
			return sources
		})
	return db
}

// localSession is one pooled engine thread with the transaction adapter
// (and its redo capture) it reuses across attempts.
type localSession struct {
	db   *Local
	th   rhtm.Thread
	lt   localTxn
	sink obs.StageRecorder
}

func (s *localSession) bind(sink obs.StageRecorder) { s.sink = sink }

func (s *localSession) engineName() string { return s.db.eng.Name() }

// attempt implements session. The engine retries its own conflicts inside
// Atomic. With a WAL attached, the closure's writes are captured per
// execution (a fresh capture every re-execution, so aborted executions log
// nothing) for publish to log after the engine commit.
func (s *localSession) attempt(fn func(tx Txn) error) (Revision, error) {
	err := s.th.Atomic(func(tx rhtm.Tx) error {
		// The body re-executes on engine aborts: reset the capture
		// state so only the committed execution's writes survive.
		s.lt.tx = tx
		s.lt.maxRev = 0
		s.lt.capture = s.db.wal != nil
		s.lt.recs = s.lt.recs[:0]
		return fn(&s.lt)
	})
	return s.lt.maxRev, err
}

// publish implements session: the committed attempt's captured operations
// go to the group-commit writer. wal_sync is only a stage when there is a
// durable wait to time: read-only closures and volatile DBs skip the stamp
// entirely.
func (s *localSession) publish() error {
	if s.db.wal == nil || len(s.lt.recs) == 0 {
		return nil
	}
	var syncStart time.Time
	if s.sink != nil {
		syncStart = time.Now()
	}
	err := s.db.wal.w.Commit(s.db.wal.seq.Add(1), 0, s.lt.recs)
	if s.sink != nil {
		s.sink.Stage(obs.StageWALSync, time.Since(syncStart))
	}
	return err
}

// Metrics implements DB: the registry's host-side instruments plus the
// engine's live commit/abort taxonomy and the store's occupancy counters
// (sampled in one read-only transaction on a pooled session thread).
func (db *Local) Metrics() obs.Snapshot {
	snap := db.reg.Snapshot()
	mergeEngineStats(&snap, db.eng.Live())
	s := db.claim(nil)
	var ss store.Stats
	err := s.th.Atomic(func(tx rhtm.Tx) error {
		ss = db.st.Stats(tx)
		return nil
	})
	db.release(s)
	if err == nil {
		mergeStoreStats(&snap, ss)
	}
	return snap
}

// Domains implements DB: one System is one commit domain, however many
// shards its store has — a batch over any of its keys is one engine
// transaction.
func (db *Local) Domains() int { return 1 }

// Domain implements DB.
func (db *Local) Domain([]byte) int { return 0 }

// Get implements DB.
func (db *Local) Get(key []byte) ([]byte, error) {
	if reservedKey(key) {
		return nil, ErrReservedKey
	}
	s := db.claim(nil)
	defer db.release(s)
	var val []byte
	var ok bool
	if err := s.th.Atomic(func(tx rhtm.Tx) error {
		val, ok = db.st.Get(tx, key)
		return nil
	}); err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	return val, nil
}

// Put implements DB. Lease-attached puts run as closure transactions (the
// lease record rides along); plain puts take the direct path: one attempt,
// no retry loop, no span.
func (db *Local) Put(key, value []byte, opts ...PutOption) error {
	if reservedKey(key) {
		return ErrReservedKey
	}
	if o := applyPutOptions(opts); o.lease != 0 {
		return db.Update(func(tx Txn) error {
			return tx.Put(key, value, opts...)
		})
	}
	s := db.claim(nil)
	defer db.release(s)
	if _, err := s.attempt(func(Txn) error { return s.lt.putRaw(key, value, 0) }); err != nil {
		return err
	}
	if err := s.publish(); err != nil {
		return err
	}
	db.hub.wake()
	return nil
}

// Delete implements DB, on the same direct path as Put.
func (db *Local) Delete(key []byte) error {
	if reservedKey(key) {
		return ErrReservedKey
	}
	s := db.claim(nil)
	defer db.release(s)
	var found bool
	if _, err := s.attempt(func(Txn) error {
		// ErrNotFound is deleteRaw's only failure; deleting an absent key
		// still commits (read-only) and is reported afterwards.
		found = s.lt.deleteRaw(key) == nil
		return nil
	}); err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	if err := s.publish(); err != nil {
		return err
	}
	db.hub.wake()
	return nil
}

// localTxn adapts one live engine transaction to the Txn interface. With
// capture set, recs collects the attempt's writes (with the revisions the
// store stamped) for WAL publication after the engine commit; the session
// resets it on every re-execution, so only the committed attempt's
// operations are ever logged.
type localTxn struct {
	tx      rhtm.Tx
	st      Storer
	capture bool
	recs    []wal.Op
	maxRev  uint64 // highest revision this attempt's writes were stamped with
}

// Get implements Txn.
func (t *localTxn) Get(key []byte) ([]byte, error) {
	if reservedKey(key) {
		return nil, ErrReservedKey
	}
	return t.getRaw(key)
}

// Revision implements Txn.
func (t *localTxn) Revision(key []byte) (Revision, error) {
	if reservedKey(key) {
		return 0, ErrReservedKey
	}
	_, rev, _, ok := t.st.Read(t.tx, key)
	if !ok {
		return 0, nil
	}
	return rev, nil
}

// Put implements Txn.
func (t *localTxn) Put(key, value []byte, opts ...PutOption) error {
	return txnPut(t, key, value, opts)
}

// Delete implements Txn.
func (t *localTxn) Delete(key []byte) error {
	if reservedKey(key) {
		return ErrReservedKey
	}
	return t.deleteRaw(key)
}

// Scan implements Txn, clamped to the user keyspace.
func (t *localTxn) Scan(start, end []byte, limit int) Iterator {
	start, end, empty := clampUserRange(start, end)
	if empty {
		return emptyIter()
	}
	return t.scanRaw(start, end, limit)
}

// --- coordTxn ---

func (t *localTxn) getRaw(key []byte) ([]byte, error) {
	v, ok := t.st.Get(t.tx, key)
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

func (t *localTxn) putRaw(key, value []byte, lease LeaseID) error {
	rev, err := t.st.PutStamped(t.tx, key, value, lease)
	if err != nil {
		return err
	}
	if rev > t.maxRev {
		t.maxRev = rev
	}
	if t.capture {
		t.recs = append(t.recs, wal.Op{
			Part: t.st.PartitionOf(key), Kind: wal.OpPut,
			Key: copyBytes(key), Value: copyBytes(value), Rev: rev, Lease: lease,
		})
	}
	return nil
}

func (t *localTxn) deleteRaw(key []byte) error {
	rev, ok := t.st.DeleteStamped(t.tx, key)
	if !ok {
		return ErrNotFound
	}
	if rev > t.maxRev {
		t.maxRev = rev
	}
	if t.capture {
		t.recs = append(t.recs, wal.Op{
			Part: t.st.PartitionOf(key), Kind: wal.OpDelete,
			Key: copyBytes(key), Rev: rev,
		})
	}
	return nil
}

func (t *localTxn) leaseOf(key []byte) (LeaseID, error) {
	_, _, lease, ok := t.st.Read(t.tx, key)
	if !ok {
		return 0, nil
	}
	return lease, nil
}

// scanRaw is the unclamped lazy cursor: a store.Cursor reading on demand
// inside the live transaction, its reads sized from the limit, so a short
// scan touches about the entries it yields. Every read runs in the same
// transaction, so the cursor is a consistent snapshot regardless.
func (t *localTxn) scanRaw(start, end []byte, limit int) Iterator {
	if limit <= 0 {
		limit = -1
	}
	return &localIter{Cursor: t.st.Cursor(t.tx, start, end, limit), remaining: limit}
}

// localIter bounds a store.Cursor to the scan's limit.
type localIter struct {
	*store.Cursor
	remaining int // entries still to yield; negative is unbounded
}

func (it *localIter) Next() bool {
	if it.remaining == 0 || !it.Cursor.Next() {
		return false
	}
	if it.remaining > 0 {
		it.remaining--
	}
	return true
}

func (it *localIter) Err() error { return nil }
