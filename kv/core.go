package kv

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rhtm/cluster"
	"rhtm/obs"
)

// session is one pooled execution context of a backend — an engine thread
// on Local, a cluster client on ClusterDB — and the whole surface the shared
// closure transaction (core.UpdateRevTraced) is written against.
type session interface {
	// bind attaches the stage sink the session reports its own finer stages
	// to (wal_sync, and on a cluster 2pc_prepare/2pc_finish) for the claim
	// about to run; nil detaches it. Sessions are single-caller while
	// claimed, so the binding cannot race with another request.
	bind(sink obs.StageRecorder)
	// attempt runs fn once as one backend transaction and returns the
	// highest revision its writes were stamped with (0 for a read-only
	// closure; meaningless with a non-nil error).
	attempt(fn func(tx Txn) error) (Revision, error)
	// publish makes the attempt that just committed durable. Backends whose
	// attempt already publishes (the cluster logs inside its commit path)
	// and volatile DBs return nil.
	publish() error
	// engineName names the engine attempt spans are attributed to.
	engineName() string
}

// backend is the embedding DB as its core sees it: the two derived
// operations a backend may implement natively. The core's own bodies are the
// defaults — Local keeps both, ClusterDB shadows both (a one-transaction
// batch for keys of one System and a validated snapshot scan; see
// clusterdb.go).
type backend interface {
	BatchTraced(sink obs.TraceSink, ops []Op) ([]OpResult, error)
	rawScan(start, end []byte, limit int) ([]Entry, error)
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
// and every DB operation that can be derived from a session's closure
// attempt. The backends add only what is natively theirs — the single-op
// Get/Put/Delete bodies, Metrics, Checkpoint, follower reads, promotion.
type core[S interface {
	comparable
	session
}] struct {
	clock     Clock
	syncEvery int // WithSyncEvery, for the writers OpenLocal/OpenCluster or Promote attach

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
	be       backend
}

// init wires the core during the backend's single-threaded construction:
// open registers one new session, sources builds the watch hub's log
// sources (with their dedicated engine threads) on first Watch.
func (db *core[S]) init(o dbOptions, be backend, open func() S, sources func() []logSource) {
	db.clock = o.clock
	db.syncEvery = o.syncEvery
	db.reg = o.metrics
	db.met = newKVMetrics(db.reg)
	db.trc.Store(&tracerBox{})
	db.sampler = obs.NewSampler(o.traceSample)
	if o.traceSample > 0 {
		db.flight = obs.NewFlight(0)
	}
	db.hub = newWatchHub(sources)
	db.hub.lost = db.met.watchLost
	registerWatchDepth(db.reg, db.hub)
	db.pool = newSessionPool(open)
	db.be = be
}

// claim takes a session from the pool with sink bound; release returns it.
func (db *core[S]) claim(sink obs.TraceSink) S {
	s := db.pool.get()
	s.bind(sink)
	return s
}

func (db *core[S]) release(s S) {
	s.bind(nil)
	db.pool.put(s)
}

// SetTracer installs (or, with nil, removes) the per-transaction tracer:
// every Update/Batch attempt from then on emits one obs.Span, committed
// or not. Safe to call while transactions run; attempts in flight may
// still report to the previous tracer.
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
// closure's writes were stamped with — 0 for a read-only closure. Front
// ends (the network server) use it to report the commit revision over the
// wire without a second transaction.
func (db *core[S]) UpdateRev(fn func(tx Txn) error) (Revision, error) {
	if db.sampler.Sample() {
		t := db.flight.NewTrace(db.traceID.Add(1), "update")
		rev, err := db.UpdateRevTraced(t, fn)
		t.Finish(err)
		return rev, err
	}
	return db.UpdateRevTraced(nil, fn)
}

// UpdateRevTraced is UpdateRev reporting through sink instead of the DB's
// own sampler (nil: exactly UpdateRev, minus the DB-level sampling). The
// caller owns the trace's lifecycle — typically the server's dispatch
// path, which opens the trace from the wire frame and finishes it when
// the response is written.
//
// This is the one closure transaction: each Retry attempt runs the closure
// once through the session and, once it committed, publishes it. An attempt
// conflicts when the closure returns ErrConflict or the backend refuses it
// (on a cluster: a pending intent on a read, a failed commit validation, a
// refused prepare); the engines absorb their own aborts inside attempt.
// sink, when non-nil, receives one engine stage spanning every attempt
// (retries and backoff included; on a cluster, commit machinery too), the
// session's own finer stages, one span per attempt, and the commit
// revision; the tracer receives the spans. The final attempt's span is
// emitted after publish, so its outcome is the caller's outcome: a commit
// the log refused (wal.ErrFenced, a device error) is an error span. A nil
// sink and tracer pay one predicted branch per site — no stamps, no
// allocations.
func (db *core[S]) UpdateRevTraced(sink obs.TraceSink, fn func(tx Txn) error) (Revision, error) {
	s := db.claim(sink)
	defer db.release(s)
	trc := db.trc.Load().t
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
		rev, err = s.attempt(fn)
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
	db.hub.wake()
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

// Batch implements DB.
func (db *core[S]) Batch(ops []Op) ([]OpResult, error) {
	if db.sampler.Sample() {
		t := db.flight.NewTrace(db.traceID.Add(1), "batch")
		res, err := db.be.BatchTraced(t, ops)
		t.Finish(err)
		return res, err
	}
	return db.be.BatchTraced(nil, ops)
}

// BatchTraced is Batch reporting through sink (nil: exactly Batch, minus
// the DB-level sampling); one closure transaction executes every op in
// order, so the batch's stages are the transaction's.
func (db *core[S]) BatchTraced(sink obs.TraceSink, ops []Op) ([]OpResult, error) {
	results := make([]OpResult, len(ops))
	_, err := db.UpdateRevTraced(sink, func(tx Txn) error {
		for i, op := range ops {
			r, err := execOp(tx, op)
			if err != nil {
				return err
			}
			results[i] = r
		}
		return nil
	})
	if err != nil {
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
	entries, err := db.be.rawScan(start, end, limit)
	if err != nil {
		return errIter(err)
	}
	return &entriesIter{entries: entries}
}

// rawScan snapshots [start, end) without the user-keyspace clamp: the range
// is collected inside one closure transaction, so it is a committed
// snapshot by construction.
func (db *core[S]) rawScan(start, end []byte, limit int) ([]Entry, error) {
	var entries []Entry
	err := db.Update(func(tx Txn) error {
		entries = entries[:0]
		it := tx.(coordTxn).scanRaw(start, end, limit)
		for it.Next() {
			entries = append(entries, Entry{Key: it.Key(), Value: it.Value()})
		}
		return it.Err()
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// GetRev implements DB: one closure transaction pairing the value with the
// revision it was committed at.
func (db *core[S]) GetRev(key []byte) ([]byte, Revision, error) {
	var val []byte
	var rev Revision
	err := db.Update(func(tx Txn) error {
		var err error
		if val, err = tx.Get(key); err != nil {
			return err
		}
		rev, err = tx.Revision(key)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return val, rev, nil
}

// PutIf implements DB through the Update path, so conditional-write
// semantics cannot drift between backends.
func (db *core[S]) PutIf(key, value []byte, rev Revision, opts ...PutOption) error {
	return db.Update(func(tx Txn) error {
		cur, err := tx.Revision(key)
		if err != nil {
			return err
		}
		if cur != rev {
			return fmt.Errorf("kv: key %q at revision %d, guard %d: %w",
				key, cur, rev, ErrRevisionMismatch)
		}
		return tx.Put(key, value, opts...)
	})
}

// DeleteIf implements DB.
func (db *core[S]) DeleteIf(key []byte, rev Revision) error {
	return db.Update(func(tx Txn) error {
		cur, err := tx.Revision(key)
		if err != nil {
			return err
		}
		if cur == 0 {
			return ErrNotFound
		}
		if cur != rev {
			return fmt.Errorf("kv: key %q at revision %d, guard %d: %w",
				key, cur, rev, ErrRevisionMismatch)
		}
		return tx.Delete(key)
	})
}
