package kv

import (
	"time"

	"rhtm"
	"rhtm/internal/scratch"
	"rhtm/obs"
	"rhtm/store"
	"rhtm/wal"
)

// Storer is the transaction-level store surface a Local DB drives; both
// store.Store and store.Sharded satisfy it. Write, Replay and Snapshot are
// the only crossings between the store and its log (see store.Store.Write);
// partitions index EventLogs() — one revision clock each — and PartitionOf
// names the clock a key's revisions come from.
type Storer interface {
	Get(tx rhtm.Tx, key []byte) ([]byte, bool)
	Read(tx rhtm.Tx, key []byte) (value []byte, rev, lease uint64, ok bool)
	AppendRead(tx rhtm.Tx, key, dst []byte) (value []byte, rev, lease uint64, ok bool)
	Write(tx rhtm.Tx, op wal.Op) (wal.Op, error)
	Replay(tx rhtm.Tx, ops []wal.Op) (maxRev uint64, err error)
	Snapshot(tx rhtm.Tx) []wal.Op
	Cursor(tx rhtm.Tx, start, end []byte, hint int) *store.Cursor
	EventLogs() []*store.EventLog
	PartitionOf(key []byte) int
	System() *rhtm.System
	SetWALStats(fn func() wal.Stats)
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
}

// NewLocal builds a DB over an engine and a store on the same System. Call
// during single-threaded setup.
func NewLocal(eng rhtm.Engine, st Storer, opts ...Option) *Local {
	db := &Local{eng: eng, st: st}
	db.init(applyOptions(opts), layout{{Name: "wal", Engine: eng, Store: st}},
		func() *localSession { return newLocalSession(db) })
	return db
}

// localSession is one pooled engine thread with the transaction adapter
// (and its redo capture) it reuses across attempts. Its engine body is
// bound once, when the session opens, so an operation builds no closure:
// the core parks the operation on o, and the body runs it.
type localSession struct {
	db   *Local
	th   rhtm.Thread
	lt   localTxn
	sink obs.StageRecorder
	body func(tx rhtm.Tx) error // s.run
	o    operation
}

func newLocalSession(db *Local) *localSession {
	s := &localSession{db: db, th: db.eng.NewThread(), lt: localTxn{st: db.st}}
	s.body = s.run
	return s
}

func (s *localSession) op() *operation { return &s.o }

func (s *localSession) bind(sink obs.StageRecorder) { s.sink = sink }

func (s *localSession) engineName() string { return s.db.eng.Name() }

// attempt implements session: the operation is one engine transaction,
// which retries its own conflicts inside Atomic. With a WAL attached, its
// writes are captured per execution (a fresh capture every re-execution,
// so aborted executions log nothing) for publish to log after the engine
// commit.
func (s *localSession) attempt() (Revision, error) {
	err := s.th.Atomic(s.body)
	s.lt.drop = scratch.Reset(s.lt.drop)
	if err != nil {
		s.lt.trim() // a failed attempt publishes nothing
	}
	return s.lt.maxRev, err
}

// run is the engine body of every attempt. It re-executes on engine
// aborts, so it resets the capture state first: only the committed
// execution's writes survive. A follower read takes the key's record and
// its partition's revision clock; every other kind is the operation's
// transaction body.
func (s *localSession) run(tx rhtm.Tx) error {
	s.lt.tx = tx
	s.lt.maxRev = 0
	s.lt.capture = s.db.ws != nil
	s.lt.recs = s.lt.recs[:0]
	s.lt.slab = s.lt.slab[:0]
	if o := &s.o; o.kind == opReadAt {
		o.val, o.rev, _, o.found = s.db.st.Read(tx, o.key)
		o.wm = s.db.st.EventLogs()[s.db.st.PartitionOf(o.key)].Rev(tx)
		return nil
	}
	return s.o.txn(&s.lt)
}

// publish implements session: the committed attempt's captured operations
// go to the one data stream's group-commit writer as a group with id 0, as
// a cluster's single-System commits are logged (only a cross-System group's
// id is ever read back). wal_sync is only a stage when there is a durable
// wait to time: read-only closures and volatile DBs skip the stamp
// entirely.
func (s *localSession) publish() error {
	if s.db.ws == nil || len(s.lt.recs) == 0 {
		return nil
	}
	var syncStart time.Time
	if s.sink != nil {
		syncStart = time.Now()
	}
	err := s.db.ws.Data[0].Commit(0, 0, s.lt.recs)
	s.lt.trim()
	if s.sink != nil {
		s.sink.Stage(obs.StageWALSync, time.Since(syncStart))
	}
	return err
}

// checkpoint implements session.
func (s *localSession) checkpoint(ws *wal.Set) error {
	return ws.Checkpoint(func(int) ([]wal.Op, error) {
		var ops []wal.Op
		err := s.th.Atomic(func(tx rhtm.Tx) error {
			ops = s.db.st.Snapshot(tx)
			return nil
		})
		return ops, err
	})
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

// localTxn adapts one live engine transaction to the Txn interface. With
// capture set, recs collects the attempt's writes (with the revisions the
// store stamped) for WAL publication after the engine commit; their keys
// and values are copies in slab. The session resets both on every
// re-execution, so only the committed attempt's operations are ever
// logged, and reuses them across attempts: wal.Writer.Commit has encoded
// the records before it returns.
type localTxn struct {
	tx      rhtm.Tx
	st      Storer
	capture bool
	recs    []wal.Op
	slab    []byte
	drop    []byte // the values Revision and leaseOf read and drop
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
	var rev uint64
	var ok bool
	t.drop, rev, _, ok = t.st.AppendRead(t.tx, key, t.drop[:0])
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
	return t.write(wal.Op{Kind: wal.OpPut, Key: key, Value: value, Lease: lease})
}

func (t *localTxn) deleteRaw(key []byte) error {
	return t.write(wal.Op{Kind: wal.OpDelete, Key: key})
}

// write applies op and, with capture set, keeps its record; the record's
// buffers are copied into the slab, since the caller may rewrite its own
// before the attempt is published.
func (t *localTxn) write(op wal.Op) error {
	op, err := t.st.Write(t.tx, op)
	if err != nil {
		return err
	}
	if op.Rev == 0 {
		return ErrNotFound // a delete of an absent key
	}
	t.maxRev = max(t.maxRev, op.Rev)
	if t.capture {
		op.Key, op.Value = t.keep(op.Key), t.keep(op.Value)
		t.recs = append(t.recs, op)
	}
	return nil
}

// trim ends the capture's use of recs and slab: each is kept for the next
// attempt only within scratch.Bound. Records past recs' length still point
// into the slab, so a dropped slab takes recs with it.
func (t *localTxn) trim() {
	if t.slab = scratch.Reset(t.slab); t.slab == nil {
		t.recs = nil
	}
	t.recs = scratch.Reset(t.recs)
}

// keep copies b to the end of the slab and returns the copy, clipped so
// that no append through it reaches the next one; nil stays nil. A slab
// that grows leaves the earlier copies in its old array, which nothing
// writes again.
func (t *localTxn) keep(b []byte) []byte {
	if b == nil {
		return nil
	}
	n := len(t.slab)
	t.slab = append(t.slab, b...)
	return t.slab[n:len(t.slab):len(t.slab)]
}

func (t *localTxn) leaseOf(key []byte) (LeaseID, error) {
	var lease uint64
	var ok bool
	t.drop, _, lease, ok = t.st.AppendRead(t.tx, key, t.drop[:0])
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
