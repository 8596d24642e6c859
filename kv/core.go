package kv

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rhtm/cluster"
	"rhtm/obs"
	"rhtm/wal"
)

// session is one pooled execution context of a backend — an engine thread
// on Local, a cluster client on ClusterDB — and the whole of what a backend
// supplies to the core: every DB operation parks its operands on the
// session's operation block and runs through core.run.
type session interface {
	// bind attaches the stage sink the session reports its own finer stages
	// to (wal_sync, and on a cluster 2pc_prepare/2pc_finish) for the claim
	// about to run; nil detaches it. Sessions are single-caller while
	// claimed, so the binding cannot race with another request.
	bind(sink obs.StageRecorder)
	// op is the session's operation block.
	op() *operation
	// attempt runs the operation parked on op() once as one backend
	// transaction and returns the highest revision its writes were stamped
	// with (0 when it wrote nothing; meaningless with a non-nil error).
	attempt() (Revision, error)
	// publish makes the attempt that just committed durable. Backends whose
	// attempt already publishes (the cluster logs inside its commit path)
	// and volatile DBs return nil.
	publish() error
	// engineName names the engine attempt spans are attributed to.
	engineName() string
	// checkpoint writes ws's checkpoint (Checkpoint), each data stream's
	// body snapshotted on the session's engine thread there.
	checkpoint(ws *wal.Set) error
}

// operation is one DB operation as a session runs it: its kind, its
// operands, and the results its committed attempt leaves. Every session
// owns one, so no operation builds a closure: the core parks the operands
// on the claimed session's block, runs it, and reads the results back
// before the block is cleared on release.
type operation struct {
	kind  opKind
	fn    func(tx Txn) error // opUpdate: the caller's closure
	ops   []Op               // opBatch, opSingle
	res   []OpResult         // opBatch, opSingle: one per op
	key   []byte             // opGetRev, opPutIf, opDeleteIf, opReadAt
	value []byte             // opPutIf
	guard Revision           // opPutIf, opDeleteIf: the revision the key must be at
	opts  []PutOption        // opPutIf
	start []byte             // opScan: the range, unclamped
	end   []byte
	limit int

	val     []byte   // opGetRev, opReadAt: the value
	rev     Revision // opGetRev, opReadAt: its revision
	wm      Revision // opReadAt: the partition's revision clock
	found   bool     // opReadAt: the key is present
	entries []Entry  // opScan: the snapshot

	one    [1]Op       // opSingle: ops is one[:]
	oneRes [1]OpResult // and res is oneRes[:]
}

// opKind names what an operation runs. Only the kinds before opSingle emit
// spans (see SetTracer).
type opKind uint8

const (
	opUpdate   opKind = iota // a closure transaction
	opGetRev                 // GetRev, PutIf, DeleteIf: the derived
	opPutIf                  // operations, each one closure transaction
	opDeleteIf               // run through txn
	opBatch                  // Batch's ops, executed in order
	opSingle                 // Get, Put, Delete: a one-op batch
	opScan                   // a snapshot of a range
	opReadAt                 // a follower read: the key and its clock
)

// txn is the operation as one transaction body: Local runs every kind but
// opReadAt this way, ClusterDB a closure, a derived operation and a leased
// batch. PutIf and DeleteIf go through it like any closure, so
// conditional-write semantics cannot drift between backends.
func (o *operation) txn(tx coordTxn) error {
	switch o.kind {
	case opUpdate:
		return o.fn(tx)
	case opBatch, opSingle:
		for i, op := range o.ops {
			r, err := execOp(tx, op)
			if err != nil {
				return err
			}
			o.res[i] = r
		}
		return nil
	case opScan:
		o.entries = o.entries[:0]
		it := tx.scanRaw(o.start, o.end, o.limit)
		for it.Next() {
			o.entries = append(o.entries, Entry{Key: it.Key(), Value: it.Value()})
		}
		return it.Err()
	case opGetRev:
		var err error
		if o.val, err = tx.Get(o.key); err != nil {
			return err
		}
		o.rev, err = tx.Revision(o.key)
		return err
	}
	cur, err := tx.Revision(o.key)
	if err != nil {
		return err
	}
	if o.kind == opDeleteIf && cur == 0 {
		return ErrNotFound
	}
	if cur != o.guard {
		return fmt.Errorf("kv: key %q at revision %d, guard %d: %w",
			o.key, cur, o.guard, ErrRevisionMismatch)
	}
	if o.kind == opPutIf {
		return tx.Put(o.key, o.value, o.opts...)
	}
	return tx.Delete(o.key)
}

// maxSessions bounds the sessions (engine threads; cluster: clients, one
// thread per System each) a DB registers; it is well under the engines'
// default 64-thread limit so direct engine users can coexist with a DB on
// the same System.
const maxSessions = 32

// sessionPool multiplexes any number of callers over at most maxSessions
// sessions: excess callers queue for a free one. The bound is what keeps a
// concurrency burst from registering more engine threads than a System's
// MaxThreads allows (thread registrations are permanent). Slots start as
// zero placeholders and lazily become registered sessions on first use.
type sessionPool[S comparable] struct {
	slots chan S
	open  func() S
}

func newSessionPool[S comparable](open func() S) sessionPool[S] {
	p := sessionPool[S]{slots: make(chan S, maxSessions), open: open}
	var placeholder S
	for i := 0; i < maxSessions; i++ {
		p.slots <- placeholder
	}
	return p
}

// get claims a session, registering it on first use; it blocks while all
// maxSessions sessions are in flight.
func (p *sessionPool[S]) get() S {
	s := <-p.slots
	var placeholder S
	if s == placeholder {
		s = p.open()
	}
	return s
}

func (p *sessionPool[S]) put(s S) { p.slots <- s }

// core is what Local and ClusterDB embed: the state every backend carries
// and every DB operation, each run through one loop (run) on a session.
// The backends add only what is natively theirs — the session, Metrics, the
// durable layout and how a writer set binds to them; recovery, promotion
// and Checkpoint are the core's (wal.go, repl.go).
type core[S interface {
	comparable
	session
}] struct {
	clock     Clock
	syncEvery int // WithSyncEvery, for the writers recovery or Promote attaches

	// lay is the durable layout; ws the writer set attached over it (nil
	// on a volatile DB), which bind, when set, hands to the backend.
	lay  layout
	ws   *wal.Set
	bind func(ws *wal.Set, maxTxID uint64)

	reg *obs.Registry
	met kvMetrics
	trc atomic.Pointer[tracerBox]

	// sampler/flight are the DB-level tracing hooks (WithTraceSampling): a
	// sampled Update or Batch opens its own trace. The network server
	// bypasses them and passes its traces down through
	// UpdateRevTraced/BatchTraced instead.
	sampler *obs.Sampler
	flight  *obs.Flight
	traceID atomic.Uint64

	leaseSeq atomic.Uint64
	hub      *watchHub
	pool     sessionPool[S]
}

// init wires the core during the backend's single-threaded construction:
// lay is the durable layout, open registers one new session. On first
// Watch, the watch hub's log sources are every ring of each data stream's
// store, drained by one dedicated thread of the stream's engine.
func (db *core[S]) init(o dbOptions, lay layout, open func() S) {
	db.lay = lay
	db.clock = o.clock
	db.syncEvery = o.syncEvery
	db.reg = o.metrics
	db.met = newKVMetrics(db.reg)
	db.trc.Store(&tracerBox{})
	db.sampler = obs.NewSampler(o.traceSample)
	if o.traceSample > 0 {
		db.flight = obs.NewFlight()
	}
	db.hub = newWatchHub(func() []logSource {
		var sources []logSource
		for _, s := range lay.data() {
			th := s.Engine.NewThread()
			for _, l := range s.Store.EventLogs() {
				sources = append(sources, logSource{log: l, run: th.Atomic})
			}
		}
		return sources
	})
	db.hub.lost = db.met.watchLost
	registerWatchDepth(db.reg, db.hub)
	db.pool = newSessionPool(open)
}

// claim takes a session from the pool with sink bound; release clears its
// operation block and returns it.
func (db *core[S]) claim(sink obs.TraceSink) S {
	s := db.pool.get()
	s.bind(sink)
	return s
}

func (db *core[S]) release(s S) {
	s.bind(nil)
	*s.op() = operation{}
	db.pool.put(s)
}

// SetTracer installs (or, with nil, removes) the per-transaction tracer:
// every attempt of an Update, Batch, GetRev, PutIf or DeleteIf from then
// on emits one obs.Span, committed or not; Get, Put, Delete, Scan and
// ReadAt emit none. Safe to call while transactions run; attempts in
// flight may still report to the previous tracer.
func (db *core[S]) SetTracer(t obs.Tracer) { db.trc.Store(&tracerBox{t}) }

// Flight returns the DB's flight recorder (nil when tracing is disabled).
func (db *core[S]) Flight() *obs.Flight { return db.flight }

// Clock implements DB.
func (db *core[S]) Clock() Clock { return db.clock }

// Watch implements DB.
func (db *core[S]) Watch(ctx context.Context, prefix []byte, fromRev Revision) (<-chan Event, error) {
	return db.hub.watch(ctx, prefix, fromRev)
}

// WaitWatchIdle blocks until the watch hub's poller has stopped; call it
// after cancelling every Watch before taking engine snapshots or running
// raw-memory validation (the hub's dedicated engine threads are then
// guaranteed outside Atomic).
func (db *core[S]) WaitWatchIdle() { db.hub.waitIdle() }

// Update implements DB.
func (db *core[S]) Update(fn func(tx Txn) error) error {
	_, err := db.UpdateRev(fn)
	return err
}

// UpdateRev is Update paired with the highest revision the committed
// closure's writes were stamped with — 0 for a read-only closure — under
// the DB's own trace sampling; a front end calls UpdateRevTraced instead.
func (db *core[S]) UpdateRev(fn func(tx Txn) error) (Revision, error) {
	t, sink := db.sample("update")
	rev, err := db.UpdateRevTraced(sink, fn)
	if t != nil {
		t.Finish(err)
	}
	return rev, err
}

// sample opens the DB's own trace for an in-process Update or Batch when
// the sampler picks it, and returns it twice: as the trace to finish and as
// the sink to report to. Both are nil otherwise, so that an untraced call
// times no stage.
func (db *core[S]) sample(kind string) (*obs.Trace, obs.TraceSink) {
	if !db.sampler.Sample() {
		return nil, nil
	}
	t := db.flight.NewTrace(db.traceID.Add(1), kind)
	return t, t
}

// UpdateRevTraced implements Served: UpdateRev reporting through sink
// instead of the DB's own sampler (nil: exactly UpdateRev, minus the
// DB-level sampling). The caller owns the trace's lifecycle — typically
// the server's dispatch path, which opens the trace from the wire frame
// and finishes it when the response is written.
func (db *core[S]) UpdateRevTraced(sink obs.TraceSink, fn func(tx Txn) error) (Revision, error) {
	s := db.claim(sink)
	defer db.release(s)
	o := s.op()
	o.kind, o.fn = opUpdate, fn
	return db.run(s, sink)
}

// run is the one loop every DB operation runs through, on the session s
// claimed with sink and holding the operation: each Retry attempt runs the
// operation once through the session and, once it committed, publishes it.
// An attempt conflicts when a closure returns ErrConflict or the backend
// refuses it (on a cluster: a pending intent on a read, a failed commit
// validation, a refused prepare, a torn scan pass); the engines absorb
// their own aborts inside attempt. sink, when non-nil, receives one engine
// stage spanning every attempt (retries and backoff included; on a cluster,
// commit machinery too), the session's own finer stages, one span per
// attempt, and the commit revision; the tracer receives the spans of the
// kinds before opSingle. The final attempt's span is emitted after publish,
// so its outcome is the caller's outcome: a commit the log refused
// (wal.ErrFenced, a device error) is an error span. Watchers are woken
// after a committed write. A nil sink and tracer pay one predicted branch
// per site — no stamps, no allocations.
func (db *core[S]) run(s S, sink obs.TraceSink) (Revision, error) {
	var trc obs.Tracer
	if s.op().kind < opSingle {
		trc = db.trc.Load().t
	}
	traced := trc != nil || sink != nil
	var engStart time.Time
	if sink != nil {
		engStart = time.Now()
	}
	var rev Revision
	err := Retry(func(attempt int) error {
		var start time.Time
		if traced {
			start = time.Now()
		}
		var err error
		rev, err = s.attempt()
		var wall time.Duration
		if traced {
			wall = time.Since(start)
		}
		err = mapErr(err)
		if !errors.Is(err, ErrConflict) {
			if sink != nil {
				sink.Stage(obs.StageEngine, time.Since(engStart))
			}
			if err == nil {
				err = s.publish()
			}
		}
		if traced {
			sp := AttemptSpan(s.engineName(), attempt, err, rev, wall, db.clock.Now())
			if trc != nil {
				trc.TxnAttempt(sp)
			}
			if sink != nil {
				sink.Attempt(sp)
			}
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	if sink != nil {
		sink.SetCommitRev(rev)
	}
	if rev != 0 {
		db.hub.wake()
	}
	return rev, nil
}

// errClusterConflict is cluster.ErrConflict on the kv surface: errors.Is
// matches it against both sentinels.
var errClusterConflict = fmt.Errorf("%w: %w", ErrConflict, cluster.ErrConflict)

// mapErr translates the cluster's conflict sentinel to the kv surface.
func mapErr(err error) error {
	if errors.Is(err, cluster.ErrConflict) {
		return errClusterConflict
	}
	return err
}

// Get implements DB: a one-op batch.
func (db *core[S]) Get(key []byte) ([]byte, error) {
	return db.single(Op{Kind: OpGet, Key: key})
}

// Put implements DB: a one-op batch (a leased one writes the lease record
// in the same transaction).
func (db *core[S]) Put(key, value []byte, opts ...PutOption) error {
	_, err := db.single(Op{Kind: OpPut, Key: key, Value: value, Lease: LeaseOf(opts...)})
	return err
}

// Delete implements DB: a one-op batch.
func (db *core[S]) Delete(key []byte) error {
	_, err := db.single(Op{Kind: OpDelete, Key: key})
	return err
}

// single runs op as a batch of one on the session's own op and result, and
// returns its value or its per-op error. It is not sampled and emits no
// span: DB-level tracing covers Update and Batch, not single-key
// operations.
func (db *core[S]) single(op Op) ([]byte, error) {
	if reservedKey(op.Key) {
		return nil, ErrReservedKey
	}
	s := db.claim(nil)
	defer db.release(s)
	o := s.op()
	o.kind, o.one[0] = opSingle, op
	o.ops, o.res = o.one[:], o.oneRes[:]
	if _, err := db.run(s, nil); err != nil {
		return nil, err
	}
	return o.oneRes[0].Value, o.oneRes[0].Err
}

// Batch implements DB.
func (db *core[S]) Batch(ops []Op) ([]OpResult, error) {
	t, sink := db.sample("batch")
	res, err := db.BatchTraced(sink, ops)
	if t != nil {
		t.Finish(err)
	}
	return res, err
}

// BatchTraced implements Served: Batch reporting through sink (nil:
// exactly Batch, minus the DB-level sampling). The batch is one
// transaction executing every op in order, so its stages are the
// transaction's.
func (db *core[S]) BatchTraced(sink obs.TraceSink, ops []Op) ([]OpResult, error) {
	for _, op := range ops {
		if reservedKey(op.Key) {
			return nil, ErrReservedKey
		}
	}
	results := make([]OpResult, len(ops))
	s := db.claim(sink)
	defer db.release(s)
	o := s.op()
	o.kind, o.ops, o.res = opBatch, ops, results
	if _, err := db.run(s, sink); err != nil {
		return nil, err
	}
	return results, nil
}

// Scan implements DB: the range is clamped to the user-visible keyspace
// (reserved system keys are never yielded) and materialized as a committed
// snapshot before the cursor yields anything.
func (db *core[S]) Scan(start, end []byte, limit int) Iterator {
	start, end, empty := clampUserRange(start, end)
	if empty {
		return emptyIter()
	}
	entries, err := db.scan(start, end, limit)
	if err != nil {
		return errIter(err)
	}
	return &entriesIter{entries: entries}
}

// scan snapshots [start, end) without the user-keyspace clamp.
func (db *core[S]) scan(start, end []byte, limit int) ([]Entry, error) {
	s := db.claim(nil)
	defer db.release(s)
	o := s.op()
	o.kind, o.start, o.end, o.limit = opScan, start, end, limit
	if _, err := db.run(s, nil); err != nil {
		return nil, err
	}
	return o.entries, nil
}

// GetRev implements DB: one closure transaction pairing the value with the
// revision it was committed at.
func (db *core[S]) GetRev(key []byte) ([]byte, Revision, error) {
	val, rev, err := db.derive(opGetRev, key, nil, 0, nil)
	if err != nil {
		return nil, 0, err
	}
	return val, rev, nil
}

// PutIf implements DB through the Update path.
func (db *core[S]) PutIf(key, value []byte, rev Revision, opts ...PutOption) error {
	_, _, err := db.derive(opPutIf, key, value, rev, opts)
	return err
}

// DeleteIf implements DB.
func (db *core[S]) DeleteIf(key []byte, rev Revision) error {
	_, _, err := db.derive(opDeleteIf, key, nil, rev, nil)
	return err
}

// derive runs a derived operation under the DB's own trace sampling, as
// UpdateRev runs a closure, and returns GetRev's value and revision.
func (db *core[S]) derive(kind opKind, key, value []byte, guard Revision, opts []PutOption) ([]byte, Revision, error) {
	t, sink := db.sample("update")
	s := db.claim(sink)
	o := s.op()
	o.kind, o.key, o.value, o.guard, o.opts = kind, key, value, guard, opts
	_, err := db.run(s, sink)
	val, rev := o.val, o.rev
	db.release(s)
	if t != nil {
		t.Finish(err)
	}
	return val, rev, err
}
