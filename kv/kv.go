// Package kv defines the canonical transactional key-value API of this
// repository: one DB contract that every data-layer engine implements, from
// a single simulated System (store.Store / store.Sharded behind an rhtm
// engine — see NewLocal) to the share-nothing multi-System cluster with
// two-phase commit (cluster.Cluster — see NewCluster). The paper's thesis is
// that hardware and software transaction paths are substitutable behind one
// contract; this package extends the same symmetry up the stack, so one
// workload suite, one conformance battery, and one example can drive any
// engine at any scale.
//
// Beyond the transactional map (Get/Put/Delete, Update closures, Batch,
// Scan cursors), the contract is coordination-grade, etcd-style:
//
//   - Revisions: every key carries a monotonic commit version stamped by
//     the owning store's revision clock. PutIf/DeleteIf are conditional
//     writes guarded by it (rev 0 = "key must be absent"), Txn.Revision
//     reads it inside closures, GetRev pairs a read with its version —
//     every engine becomes a CAS machine with no new locking.
//   - Leases: Grant(ttl) mints a lease on the injected virtual-time Clock;
//     Put(..., WithLease(id)) attaches keys; KeepAlive extends; Revoke —
//     and the ExpireLeases pump — atomically delete a lease's keys in one
//     transaction (one 2PC commit on the cluster, however many Systems the
//     keys span).
//   - Watch streams: Watch(ctx, prefix, fromRev) delivers commit events
//     (per-key ordered, at-least-once, with explicit loss markers when a
//     slow consumer outruns the bounded commit log) fed by event rings the
//     data transactions themselves append to at commit time.
//
// Failures are errors.Is-able sentinels — ErrNotFound, ErrConflict,
// ErrRevisionMismatch, ErrLeaseNotFound, ErrReservedKey, ErrArenaFull,
// ErrTooLarge — replacing the mixed bool/error returns of the layers below.
//
// # Revisions
//
// A revision is the value of the owning store's revision clock at the write
// that produced the key's current state; every write (including deletes)
// advances the clock, so a key's revision strictly increases over its
// lifetime and can never repeat across delete/re-insert (no ABA). Clocks
// are per data partition — per shard on a sharded Local, per System on the
// cluster — so revisions order writes per key, not across partitions; on a
// single-store DB they are a total commit order.
//
// # Reserved keys
//
// The empty key and every key whose first byte is 0x00 are reserved for
// system metadata (lease records). User-facing operations reject them with
// ErrReservedKey, and scans skip them; this is what lets lease state ride
// the ordinary transactional keyspace — and therefore the ordinary commit
// paths, including cross-System 2PC — without leaking into user reads.
//
// One carve-out: the index namespace, keys prefixed by IndexSpace
// (0x00 'i'). Index entries are ordinary records a record layer (package
// index) writes inside the caller's own Update closures, so they must be
// reachable through every DB implementation — Local, the cluster, and the
// network client — with no protocol changes. Keys under IndexSpace are
// therefore NOT reserved: user-facing operations accept them, and a Scan
// whose start lies inside the namespace stays inside it (the cursor is
// clamped at the namespace end, never bleeding into user keys). The
// default views are unchanged: a nil-bounded Scan still starts at the
// first user key, and a nil-prefix Watch still delivers user-key events
// only — index traffic is visible exactly to callers that name the
// namespace.
//
// # Retry policy
//
// Update re-executes fn when the transaction cannot commit due to
// contention: a pending cross-System write intent on a key it reads, or
// failed optimistic read validation (the engines absorb their own aborts
// below this). fn must therefore be safe to re-execute (side effects
// outside the Txn should be idempotent or deferred). A closure can also
// request a retry itself by returning ErrConflict. Any other non-nil error
// from fn aborts the transaction — no write survives — and is returned to
// the caller as-is. One loop decides when to try again, for every backend
// and for the network client: Retry, with randomized exponential backoff,
// giving up after its attempt bound with an error wrapping ErrConflict.
// Every other operation of a backend — single-key operations, Batch, Scan,
// the derived ones — runs through the same loop as Update does.
//
// Isolation inside fn is the standard optimistic contract: each read
// observes committed state, but reads of different keys are only
// guaranteed mutually consistent once the commit validates (the
// single-System implementation is stricter and never shows a torn pair;
// the cluster implementation is not). A closure that checks a cross-key
// invariant mid-flight should treat a violation as contention and return
// ErrConflict — if the snapshot really was torn, the commit would have
// failed validation anyway.
package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rhtm/obs"
	"rhtm/store"
)

// ErrNotFound reports a Get or Delete of an absent key.
var ErrNotFound = errors.New("kv: key not found")

// ErrConflict reports a transaction that could not commit within the
// implementation's retry bound. Returning it from an Update closure
// requests a retry of the whole closure.
var ErrConflict = errors.New("kv: transaction conflict")

// ErrRevisionMismatch reports a PutIf/DeleteIf whose revision guard did not
// match the key's current revision (including rev 0 against a present key,
// or a nonzero rev against an absent one).
var ErrRevisionMismatch = errors.New("kv: revision mismatch")

// ErrLeaseNotFound reports an operation against a lease id that was never
// granted, already expired, or was revoked.
var ErrLeaseNotFound = errors.New("kv: lease not found")

// ErrReservedKey reports a user operation on a reserved key (empty, or
// first byte 0x00) — the namespace lease records live in.
var ErrReservedKey = errors.New("kv: key is in the reserved system namespace")

// ErrArenaFull reports storage exhaustion: the owning store's arena has no
// block left for the write. It aliases the store package's sentinel, so
// errors.Is matches errors from either layer.
var ErrArenaFull = store.ErrArenaFull

// ErrTooLarge reports a key or value whose encoded block exceeds the
// largest arena size class. Alias of the store package's sentinel.
var ErrTooLarge = store.ErrTooLarge

// Revision is a key's monotonic commit version (see the package comment).
// 0 is never a live revision: it means "absent" in guards and "no replay"
// in Watch.
type Revision = uint64

// LeaseID names a granted lease; 0 means "no lease".
type LeaseID = uint64

// PutOption modifies a Put (DB- or Txn-level).
type PutOption func(*putOpts)

type putOpts struct {
	lease LeaseID
}

// WithLease attaches the written key to a granted lease: when the lease
// expires or is revoked, the key is deleted atomically with the lease's
// other keys. A later Put without the option detaches the key.
func WithLease(id LeaseID) PutOption {
	return func(o *putOpts) { o.lease = id }
}

func applyPutOptions(opts []PutOption) putOpts {
	if len(opts) == 0 {
		return putOpts{} // without an option o would still escape to the heap
	}
	var o putOpts
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// LeaseOf resolves opts to the lease they attach (0 = none) — for front
// ends (the network client) that serialize a Put instead of executing it.
func LeaseOf(opts ...PutOption) LeaseID {
	return applyPutOptions(opts).lease
}

// OpKind selects what a batch Op does.
type OpKind uint8

const (
	// OpGet reads Key; the value (or ErrNotFound) lands in the OpResult.
	OpGet OpKind = iota
	// OpPut stores Key→Value (attached to Lease when nonzero).
	OpPut
	// OpDelete removes Key; an absent key yields ErrNotFound in the
	// OpResult without failing the batch.
	OpDelete
)

// Op is one operation of a Batch.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value []byte  // OpPut only
	Lease LeaseID // OpPut only: attach to this lease (0 = none)
}

// OpResult is the outcome of one batch Op. Err is nil on success,
// ErrNotFound for a Get or Delete of an absent key; per-op errors do not
// fail the batch (a batch fails as a whole only on hard errors such as
// ErrArenaFull or retry exhaustion).
type OpResult struct {
	Value []byte // OpGet only: a private copy of the value
	Err   error
}

// Entry is one key-value pair yielded by a Scan.
type Entry struct {
	Key   []byte
	Value []byte
}

// EventKind classifies a Watch event.
type EventKind uint8

const (
	// EventPut reports a key's insert or overwrite.
	EventPut EventKind = iota
	// EventDelete reports a key's removal.
	EventDelete
	// EventLost marks a gap: the bounded commit log (or the watcher's
	// delivery queue) overflowed and an unknown number of events between
	// the previous event and the next one were dropped. Consumers needing
	// exact state re-read with Scan/GetRev and continue.
	EventLost
)

// Event is one commit notification delivered by Watch.
type Event struct {
	Kind EventKind
	Key  []byte
	// Value is the written value for EventPut — nil when the value was too
	// large for the bounded commit log, and on a put that fromRev replay
	// reports from a span written while no watch was open: the log copies
	// values only while a watch streams it (consumers Get the key on
	// demand). A live stream carries every value that fits.
	Value []byte
	// Rev is the revision the write was stamped with. Per key, delivered
	// revisions strictly increase. Zero for EventLost.
	Rev Revision
}

// Iterator is a cursor over an ordered key range. Next advances and reports
// whether an entry is available; Key/Value return the current entry (private
// copies, valid until the next call to Next). After Next returns false, Err
// distinguishes normal exhaustion (nil) from a failed scan.
//
//	it := db.Scan(start, end, 0)
//	for it.Next() {
//	    use(it.Key(), it.Value())
//	}
//	if err := it.Err(); err != nil { ... }
type Iterator interface {
	Next() bool
	Key() []byte
	Value() []byte
	Err() error
}

// Txn is the view inside an Update closure. All operations are part of one
// atomic transaction: they commit together when fn returns nil, or vanish
// together when fn errors or the commit conflicts.
type Txn interface {
	// Get returns a private copy of key's value, or ErrNotFound.
	Get(key []byte) ([]byte, error)
	// Revision returns key's current revision — 0 (with a nil error) when
	// the key is absent. Pair it with Put/Delete in the same closure for
	// serializable read-modify-writes; use PutIf/DeleteIf for the one-shot
	// optimistic form. Read the revision BEFORE writing the key in the
	// same closure: a write's own revision is assigned at commit, so what
	// Revision reports after a same-transaction write is backend-specific
	// (the eager single-System implementation shows a provisional fresh
	// revision, the cluster's buffered transaction still shows the
	// committed observation). The shared PutIf/DeleteIf helpers follow
	// this rule, which is what keeps conditional-write semantics identical
	// across backends.
	Revision(key []byte) (Revision, error)
	// Put stores key→value (both copied), attaching a lease when the
	// WithLease option is given (which requires the lease to exist).
	Put(key, value []byte, opts ...PutOption) error
	// Delete removes key, returning ErrNotFound when it was absent.
	Delete(key []byte) error
	// Scan returns a cursor over start <= key < end (nil bounds are
	// unbounded) yielding at most limit entries (0 = unbounded). The cursor
	// observes this transaction's own writes.
	Scan(start, end []byte, limit int) Iterator
}

// DB is the canonical transactional key-value interface, and the whole of
// it: every implementation (Local, ClusterDB, the network client) carries
// every method, so no caller probes a DB for an optional surface.
// Implementations are safe for concurrent use by any number of goroutines:
// callers multiplex over an internal bounded session pool (engine threads /
// cluster clients), with excess callers queueing for a free session.
type DB interface {
	// Get returns a private copy of key's committed value, or ErrNotFound.
	Get(key []byte) ([]byte, error)
	// GetRev is Get paired with the key's revision — the token a later
	// PutIf/DeleteIf is guarded by.
	GetRev(key []byte) ([]byte, Revision, error)
	// Put atomically stores key→value; WithLease attaches it to a lease.
	Put(key, value []byte, opts ...PutOption) error
	// PutIf stores key→value only if the key's current revision equals rev
	// (0 = only if absent), failing with ErrRevisionMismatch otherwise —
	// optimistic compare-and-swap on any engine.
	PutIf(key, value []byte, rev Revision, opts ...PutOption) error
	// Delete atomically removes key, returning ErrNotFound when absent.
	Delete(key []byte) error
	// DeleteIf removes key only if its current revision equals rev, failing
	// with ErrRevisionMismatch otherwise (rev 0 never matches a present
	// key; deleting an absent key reports ErrNotFound).
	DeleteIf(key []byte, rev Revision) error
	// Update runs fn as one closure transaction under the package retry
	// policy (see the package comment).
	Update(fn func(tx Txn) error) error
	// Batch executes independent single-key ops as one transaction and
	// returns per-op results in order. Ops see each other in batch order
	// (a Get after a Put of the same key observes the Put). The whole
	// batch commits atomically.
	Batch(ops []Op) ([]OpResult, error)
	// Scan returns a cursor over start <= key < end (nil bounds are
	// unbounded) in ascending key order, yielding at most limit entries
	// (0 = unbounded). The yielded prefix is a consistent snapshot: no
	// torn multi-key transaction, no phantom, is ever observable in it.
	Scan(start, end []byte, limit int) Iterator

	// Domains is how many commit domains the DB has: the partitions within
	// which a multi-key transaction commits as one engine transaction and
	// across which it needs two-phase commit. A cluster has one per System;
	// a single System — and a network client, whose server does its own
	// routing — has one.
	Domains() int
	// Domain returns the commit domain owning key, in [0, Domains()). It is
	// a pure function of the key. A front end that groups independent
	// operations of its own accord (the server's batcher) groups within a
	// domain, so the grouping never buys an atomicity nobody asked for at
	// cross-domain prices.
	Domain(key []byte) int

	// Grant mints a lease expiring ttl clock ticks from now (see Clock).
	Grant(ttl uint64) (LeaseID, error)
	// KeepAlive pushes the lease's deadline to now+ttl (the granted ttl),
	// failing with ErrLeaseNotFound for a dead lease.
	KeepAlive(id LeaseID) error
	// Revoke deletes the lease and every key still attached to it, as one
	// atomic transaction (one 2PC commit on the cluster).
	Revoke(id LeaseID) error
	// ExpireLeases revokes every lease whose deadline has passed on the
	// DB's clock, one atomic transaction per lease, returning how many it
	// expired. Drivers pump it on their virtual-time cadence; it is safe to
	// run from several goroutines (a lease expires exactly once).
	ExpireLeases() (int, error)
	// Clock returns the DB's virtual-time source (injected at
	// construction; see WithClock and ManualClock).
	Clock() Clock

	// Watch streams commit events for keys under prefix (nil = all user
	// keys) until ctx is cancelled, at which point the channel closes.
	// Delivery is per-key ordered and at-least-once while the consumer
	// keeps up with the bounded commit log; falling behind surfaces as an
	// EventLost marker, never as silent drops. fromRev > 0 first replays
	// the retained history with revisions >= fromRev (per revision clock);
	// 0 streams new events only.
	Watch(ctx context.Context, prefix []byte, fromRev Revision) (<-chan Event, error)

	// Checkpoint writes a full-state snapshot into the DB's write-ahead
	// log, bounding the next recovery's replay to the post-checkpoint
	// suffix. DBs constructed without a log (NewLocal, NewCluster) return
	// ErrNoWAL; recovered DBs come from OpenLocal / OpenCluster.
	Checkpoint() error

	// Metrics captures the DB's observability surface: the registry's
	// host-side instruments (leases, watch loss, WAL amortization, 2PC
	// phase timings) merged with the engines' live commit/abort taxonomy
	// and the stores' occupancy counters. Safe to call while transactions
	// run; the snapshot's schema is identical on every backend (see
	// DESIGN.md §10 for the name taxonomy).
	Metrics() obs.Snapshot

	// FollowerReader is the provably-stale read: on a primary the
	// watermark is the current revision clock, on a replica how far its
	// apply pump has caught up.
	FollowerReader
	// WaitWatchIdle blocks until the DB's watch machinery has quiesced;
	// call it after cancelling every Watch and draining its channel, before
	// taking engine snapshots or running raw-memory validation.
	WaitWatchIdle()
	// SetTracer installs (or, with nil, removes) the per-transaction
	// tracer. On Local and ClusterDB every attempt of an Update, Batch,
	// GetRev, PutIf or DeleteIf from then on emits one obs.Span; Get, Put,
	// Delete, Scan and ReadAt emit none. The network client runs only its
	// Update attempts itself and reports those.
	SetTracer(t obs.Tracer)
}

// Served is what a front end (the network server) serves: a DB plus the
// traced forms of its closure transaction and batch, through which the
// front end passes the trace it opened for a request. A nil sink is the
// untraced call, exactly UpdateRev and Batch minus the DB's own sampling:
// a server decides sampling per request, so a DB built WithTraceSampling
// samples only the requests it is called with directly.
type Served interface {
	DB
	// UpdateRevTraced runs fn as one closure transaction, reporting its
	// stages to sink, and returns the highest revision its writes were
	// stamped with (0 for a read-only closure).
	UpdateRevTraced(sink obs.TraceSink, fn func(tx Txn) error) (Revision, error)
	// BatchTraced is Batch reporting its one transaction's stages to sink.
	BatchTraced(sink obs.TraceSink, ops []Op) ([]OpResult, error)
}

var (
	_ Served = (*Local)(nil)
	_ Served = (*ClusterDB)(nil)
)

// maxAttempts bounds the attempts Retry makes before it gives up.
const maxAttempts = 10_000

// errRetriesExhausted is the ErrConflict-wrapping failure Retry returns
// after maxAttempts.
var errRetriesExhausted = fmt.Errorf("kv: exhausted %d attempts: %w", maxAttempts, ErrConflict)

// Retry is the one conflict-retry loop above the engines: it calls op with
// attempt = 0, 1, … while op returns an error wrapping ErrConflict, backing
// off between calls, and returns op's first other result — or, after
// maxAttempts conflicts, an error wrapping ErrConflict. Every operation of
// Local and ClusterDB runs its attempts through it in one place (the core's
// run), and the network client's Update runs its own; op must leave
// nothing behind when it conflicts.
func Retry(op func(attempt int) error) error {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		err := op(attempt)
		if !errors.Is(err, ErrConflict) {
			return err
		}
		backoff(attempt)
	}
	return errRetriesExhausted
}

// backoff yields, then sleeps with randomized exponential growth, between
// conflicting attempts. The global rand functions are locked, so this is
// safe from any goroutine.
func backoff(attempt int) {
	if attempt < 4 {
		runtime.Gosched()
		return
	}
	shift := attempt
	if shift > 10 {
		shift = 10
	}
	time.Sleep(time.Duration(1+rand.Intn(1<<shift)) * time.Microsecond)
}

// IndexSpace is the prefix of the index namespace: the one region of the
// 0x00 system keyspace that user-facing operations may address (see the
// package comment). Secondary-index entries live at
// IndexSpace ‖ indexID ‖ encoded-value ‖ primary-key, so a range Scan
// starting inside the namespace IS an index scan. Treat as read-only.
var IndexSpace = []byte{0x00, 'i'}

// IndexSpaceEnd is the exclusive upper bound of the index namespace:
// every index-entry key k satisfies IndexSpace <= k < IndexSpaceEnd.
// Treat as read-only.
var IndexSpaceEnd = []byte{0x00, 'j'}

// indexSpaceKey reports whether k lies in the index namespace.
func indexSpaceKey(k []byte) bool {
	return len(k) >= 2 && k[0] == 0x00 && k[1] == 'i'
}

// reservedKey reports whether k is in the system namespace (see the
// package comment). Index-namespace keys are deliberately not reserved.
func reservedKey(k []byte) bool {
	return (len(k) == 0 || k[0] == 0x00) && !indexSpaceKey(k)
}

// IsReservedKey reports whether k is in the reserved system namespace
// (empty, or first byte 0x00, excluding the IndexSpace carve-out).
// Exported for front ends — the network server and client — that must
// reject reserved keys with ErrReservedKey before an operation ever
// reaches a transaction.
func IsReservedKey(k []byte) bool { return reservedKey(k) }

// userSpaceStart is the smallest non-reserved key outside the index
// namespace.
var userSpaceStart = []byte{0x01}

// clampUserRange narrows [start, end) to the user-visible keyspace,
// returning empty=true when nothing user-visible remains. A start inside
// the index namespace selects that namespace: the range is clamped at
// IndexSpaceEnd so an index cursor can never bleed into user keys. Any
// other start (nil included) is clamped up to the first user key, so
// default scans never see index entries.
func clampUserRange(start, end []byte) (s, e []byte, empty bool) {
	if indexSpaceKey(start) {
		if end == nil || bytes.Compare(end, IndexSpaceEnd) > 0 {
			end = IndexSpaceEnd
		}
		if bytes.Compare(end, start) <= 0 {
			return nil, nil, true
		}
		return start, end, false
	}
	if start == nil || bytes.Compare(start, userSpaceStart) < 0 {
		start = userSpaceStart
	}
	if end != nil && bytes.Compare(end, start) <= 0 {
		return nil, nil, true
	}
	return start, end, false
}

// coordTxn is the internal transaction surface both backends expose beyond
// Txn: raw (reservation-exempt) access for the lease machinery, which
// stores its records as ordinary transactional keys in the reserved
// namespace.
type coordTxn interface {
	Txn
	getRaw(key []byte) ([]byte, error)
	putRaw(key, value []byte, lease LeaseID) error
	deleteRaw(key []byte) error
	leaseOf(key []byte) (LeaseID, error)
	scanRaw(start, end []byte, limit int) Iterator
}

// txnPut is the one Put implementation both backends' Txn.Put delegate to:
// it enforces the reserved namespace and maintains the lease record's key
// list atomically with the write.
func txnPut(ct coordTxn, key, value []byte, opts []PutOption) error {
	if reservedKey(key) {
		return ErrReservedKey
	}
	o := applyPutOptions(opts)
	if o.lease == 0 {
		return ct.putRaw(key, value, 0)
	}
	return leaseAttach(ct, key, value, o.lease)
}

// execOp applies one batch op through a transaction, mapping ErrNotFound
// into the per-op result and returning only hard errors.
func execOp(tx coordTxn, op Op) (OpResult, error) {
	switch op.Kind {
	case OpGet:
		v, err := tx.Get(op.Key)
		if errors.Is(err, ErrNotFound) {
			return OpResult{Err: ErrNotFound}, nil
		}
		return OpResult{Value: v}, err
	case OpPut:
		if op.Lease != 0 {
			return OpResult{}, tx.Put(op.Key, op.Value, WithLease(op.Lease))
		}
		return OpResult{}, tx.Put(op.Key, op.Value)
	default:
		err := tx.Delete(op.Key)
		if errors.Is(err, ErrNotFound) {
			return OpResult{Err: ErrNotFound}, nil
		}
		return OpResult{}, err
	}
}

// entriesIter is a buffered Iterator over pre-collected entries, used for
// snapshot scans that materialize their prefix before yielding.
type entriesIter struct {
	entries []Entry
	pos     int
	err     error
}

func (it *entriesIter) Next() bool {
	if it.err != nil || it.pos >= len(it.entries) {
		return false
	}
	it.pos++
	return true
}

func (it *entriesIter) Key() []byte   { return it.entries[it.pos-1].Key }
func (it *entriesIter) Value() []byte { return it.entries[it.pos-1].Value }
func (it *entriesIter) Err() error    { return it.err }

// emptyIter is an exhausted Iterator (clamped-away ranges).
func emptyIter() Iterator { return &entriesIter{} }

// errIter is an Iterator that failed before yielding anything.
func errIter(err error) Iterator { return &entriesIter{err: err} }
