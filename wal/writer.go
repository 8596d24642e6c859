package wal

import (
	"errors"
	"slices"
	"sync"
	"time"

	"rhtm/internal/scratch"
	"rhtm/obs"
)

// ErrFenced reports an operation on a writer whose epoch was fenced off:
// the stream has a new primary and this writer must never reach the device
// again. Unlike device errors the rejection is deliberate — a deposed
// primary's commits fail here, before any frame is appended, which is the
// whole zombie-rejection mechanism.
var ErrFenced = errors.New("wal: writer fenced (stream has a newer epoch)")

// Writer is the group-commit appender of one WAL stream. Committers call
// Commit with a whole committed transaction; the writer sequences it behind
// its per-partition revision predecessors, encodes the group
// (begin/ops/commit) contiguously, and appends it to the device. Durability
// is leader-based group commit: the first committer needing a sync becomes
// the syncer while the device barrier runs unlocked, so every transaction
// appended meanwhile is covered by the next single sync — the classic
// amortization, measured by Stats (transactions per sync grows with
// concurrency).
//
// Sequencing: per-store revisions are dense in commit order (every
// committed write advances the owning store's revision word, aborted
// attempts roll it back), so the writer holds a transaction back until each
// of its partitions is at exactly the transaction's first revision there.
// Two transactions sharing a partition commit in revision order on that
// partition — the engine (any engine) serialized them on the revision word
// — so log order equals commit order per partition and the durable log is
// always a consistent cut. Operations with revision 0 (coordinator decision
// records, which are applied rather than replayed) bypass the gate.
//
// The consequence the caller must honor: every committed transaction that
// consumed a revision MUST be published, or the gate stalls behind the
// hole. After a store is opened through the WAL, all writes must go through
// the logging paths (the kv layer's DB surface) — setup-path writes behind
// the log's back wedge the stream.
type Writer struct {
	mu   sync.Mutex
	cond *sync.Cond
	dev  Device

	syncEvery int
	next      map[int]uint64 // per-partition next expected revision
	parked    []*pendingTxn
	free      []*pendingTxn // records no Commit holds, for the next to reuse
	buf       []byte

	lsn       uint64 // last assigned LSN
	appended  int    // device bytes appended
	durable   int    // device bytes covered by a sync
	syncing   bool
	sinceSync uint64 // txns appended since the last sync
	failed    error

	stats statsWords

	// onAppend, when set, runs at the end of every successful device append,
	// under w.mu — the replication layer's wakeup hook. It must not call back
	// into the writer; tailer kicks (which take only the tailer's own lock)
	// are the intended use.
	onAppend func()

	// Optional observability (SetMetrics). batchHist records transactions
	// covered per sync barrier — the group-commit amortization
	// distribution; intervalHist records nanoseconds between consecutive
	// barriers. nil instruments are no-ops, so the sync paths observe
	// unconditionally.
	batchHist    *obs.Histogram
	intervalHist *obs.Histogram
	lastSync     time.Time
}

// Options configures a Writer.
type Options struct {
	// SyncEvery relaxes the durability promise: n > 1 syncs only every n
	// transactions, and Commit returns once its frames are appended (they
	// may be lost by a crash until the next sync). n <= 1 is full group
	// commit: Commit returns only after a sync covers the transaction.
	SyncEvery int
}

type pendingTxn struct {
	id    uint64
	flags uint8
	ops   []Op

	appended bool
	end      int // device bytes at the end of this txn's frames
	err      error
}

type statsWords struct {
	frames     uint64
	bytes      uint64
	txns       uint64
	syncs      uint64
	durableLSN uint64
	checkptLSN uint64
	checkptOps uint64
	marks      uint64
	fenced     uint64
}

// Stats is a snapshot of a writer's counters.
type Stats struct {
	// Frames / Bytes / Txns count appended frames, encoded bytes, and
	// logged transaction groups.
	Frames, Bytes, Txns uint64
	// Syncs counts device barriers; Txns/Syncs is the group-commit
	// amortization factor.
	Syncs uint64
	// DurableLSN is the last LSN covered by a sync; CheckpointLSN the LSN
	// of the last checkpoint's closing frame. CheckpointLSN <= DurableLSN
	// always (checkpoints sync before returning) — store.Validate
	// cross-checks it.
	DurableLSN, CheckpointLSN uint64
	// CheckpointOps counts entries written by the last checkpoint.
	CheckpointOps uint64
	// LastLSN is the last LSN assigned to an appended frame (whether or not
	// a sync covers it yet) — the replication lag reference point.
	LastLSN uint64
	// Fenced counts operations rejected with ErrFenced after Fence — the
	// zombie-primary commits that never reached the device.
	Fenced uint64
}

// Add accumulates other into s (per-System aggregation on the cluster):
// counts sum, LSN watermarks take the maximum — they are per-stream
// positions, not counts.
func (s *Stats) Add(other Stats) {
	s.Frames += other.Frames
	s.Bytes += other.Bytes
	s.Txns += other.Txns
	s.Syncs += other.Syncs
	s.CheckpointOps += other.CheckpointOps
	s.Fenced += other.Fenced
	s.DurableLSN = max(s.DurableLSN, other.DurableLSN)
	s.CheckpointLSN = max(s.CheckpointLSN, other.CheckpointLSN)
	s.LastLSN = max(s.LastLSN, other.LastLSN)
}

// NewWriter builds a writer over dev, which must already be truncated to a
// clean frame boundary (Scan + Device.Truncate — see Open in the kv layer).
// nextLSN is one past the last valid LSN of the existing log; startRevs
// seeds the per-partition sequence gate with each partition's next expected
// revision (current revision clock + 1).
func NewWriter(dev Device, nextLSN uint64, startRevs map[int]uint64, opts Options) *Writer {
	w := &Writer{
		dev:       dev,
		syncEvery: opts.SyncEvery,
		next:      map[int]uint64{},
		lsn:       nextLSN - 1,
		appended:  dev.Size(),
		durable:   dev.Size(),
	}
	for p, r := range startRevs {
		w.next[p] = r
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// SetMetrics attaches group-commit histograms: batch receives the number
// of transactions each sync barrier covered, interval the nanoseconds
// between consecutive barriers. Either may be nil. Call before the writer
// is shared.
func (w *Writer) SetMetrics(batch, interval *obs.Histogram) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.batchHist = batch
	w.intervalHist = interval
}

// SetOnAppend attaches a hook invoked (under the writer lock) after every
// successful device append — the replication layer registers its tailer
// wakeup here. The hook must be non-blocking and must not call back into
// the writer. Call before the writer is shared.
func (w *Writer) SetOnAppend(fn func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onAppend = fn
}

// Fence permanently rejects every future operation with ErrFenced. A fenced
// writer never appends another byte: promotion fences the old primary's
// writer first, so any frame present after the new epoch's marker provably
// came from the new primary. Committers blocked inside the writer are woken
// and fail. Fencing an already-failed writer keeps the original error.
func (w *Writer) Fence() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed == nil {
		w.failed = ErrFenced
	}
	w.cond.Broadcast()
}

// failedLocked returns the writer's permanent failure, counting fenced
// rejections as it hands them out.
func (w *Writer) failedLocked() error {
	if w.failed == ErrFenced {
		w.stats.fenced++
	}
	return w.failed
}

// AppendEpoch appends a synced membership frame: the new primary epoch and
// its opaque membership blob. Promotion writes one as the first frame of the
// new reign — durable evidence the previous epoch was fenced before any
// later frame existed.
func (w *Writer) AppendEpoch(epoch uint64, membership []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.awaitSyncLocked()
	if w.failed != nil {
		return w.failedLocked()
	}
	if err := w.appendLocked(&Unit{Kind: UnitEpoch, TxID: epoch, Meta: membership}); err != nil {
		return err
	}
	if err := w.dev.Sync(); err != nil {
		w.failed = err
		w.cond.Broadcast()
		return err
	}
	w.stats.syncs++
	w.durable = w.appended
	w.stats.durableLSN = w.lsn
	return nil
}

// observeSyncLocked records one completed barrier covering batch txns.
func (w *Writer) observeSyncLocked(batch uint64) {
	w.batchHist.Observe(batch)
	if w.intervalHist != nil {
		now := time.Now()
		if !w.lastSync.IsZero() {
			w.intervalHist.Observe(uint64(now.Sub(w.lastSync)))
		}
		w.lastSync = now
	}
}

// Commit publishes one committed transaction (id groups its frames; flags
// is 0 or FlagCross) and blocks until it is appended — and, under full
// group commit, synced. Empty transactions are ignored. Whatever it
// returns, Commit keeps no reference to ops: they are encoded, or
// dropped, before it returns, so the caller may reuse their buffers.
func (w *Writer) Commit(id uint64, flags uint8, ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failedLocked()
	}
	t := w.pendingLocked()
	defer w.recycleLocked(t)
	t.id, t.flags, t.ops = id, flags, ops
	w.parked = append(w.parked, t)
	w.flushReadyLocked()
	for !t.appended && t.err == nil && w.failed == nil {
		w.cond.Wait()
	}
	if t.err != nil {
		return t.err
	}
	if w.failed != nil {
		return w.failedLocked()
	}
	if w.syncEvery > 1 {
		if w.sinceSync >= uint64(w.syncEvery) && !w.syncing {
			return w.syncLocked()
		}
		return nil
	}
	// Full durability: wait for (or perform) a sync covering this txn.
	for t.end > w.durable {
		if w.failed != nil {
			return w.failedLocked()
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	return nil
}

// pendingLocked takes a commit record from the free list, or a new one.
func (w *Writer) pendingLocked() *pendingTxn {
	if n := len(w.free); n > 0 {
		t := w.free[n-1]
		w.free = w.free[:n-1]
		return t
	}
	return &pendingTxn{}
}

// recycleLocked ends t's Commit: a failed writer leaves a transaction
// parked, and it leaves the gate here, so that no record the writer keeps
// points at the caller's ops. Then t goes back on the free list.
func (w *Writer) recycleLocked(t *pendingTxn) {
	if !t.appended {
		if i := slices.Index(w.parked, t); i >= 0 {
			w.parked = slices.Delete(w.parked, i, i+1)
		}
	}
	*t = pendingTxn{}
	w.free = append(w.free, t)
}

// Mark appends a resolution marker (coordinator streams): txid's decision
// is fully applied, or — with FlagGlobal — every earlier one is. Marks are
// advisory for the next recovery, so they are appended without a sync.
func (w *Writer) Mark(txid uint64, flags uint8) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failedLocked()
	}
	w.stats.marks++
	return w.appendLocked(&Unit{Kind: UnitMark, Flags: flags, TxID: txid})
}

// Checkpoint writes an in-log snapshot: it freezes appends, collects the
// snapshot through fn (which must return the complete durable state as
// replay operations — the caller runs its own transaction for consistency),
// writes the begin/entries/end group, and syncs. Recovery replays from the
// last complete checkpoint instead of the log head, so replay time scales
// with the post-checkpoint suffix.
//
// The freeze is the correctness argument: any transaction already flushed
// when Checkpoint acquires the writer committed before fn's snapshot and is
// therefore inside it; everything else flushes after the checkpoint group
// and is replayed on top (idempotently, by revision).
func (w *Writer) Checkpoint(fn func() ([]Op, error)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.awaitSyncLocked()
	if w.failed != nil {
		return w.failedLocked()
	}
	ops, err := fn()
	if err != nil {
		return err
	}
	if err := w.appendLocked(&Unit{Kind: UnitCheckpoint, Checkpoint: ops}); err != nil {
		return err
	}
	if err := w.dev.Sync(); err != nil {
		w.failed = err
		w.cond.Broadcast()
		return err
	}
	w.stats.syncs++
	w.durable = w.appended
	w.stats.durableLSN = w.lsn
	w.observeSyncLocked(w.sinceSync)
	w.sinceSync = 0
	w.stats.checkptLSN = w.lsn
	w.stats.checkptOps = uint64(len(ops))
	return nil
}

// Sync forces the durability barrier over everything appended so far —
// the relaxed mode's explicit flush point. A barrier already running is
// waited for, not doubled: Sync starts one of its own only if that one left
// part of what it must cover undurable.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	target := w.appended
	for w.durable < target {
		if w.failed != nil {
			return w.failedLocked()
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	if w.failed != nil {
		return w.failedLocked()
	}
	return nil
}

// awaitSyncLocked waits until no barrier syncLocked started is running, so
// that a barrier run under the lock (Checkpoint, AppendEpoch) does not
// overlap it.
func (w *Writer) awaitSyncLocked() {
	for w.syncing && w.failed == nil {
		w.cond.Wait()
	}
}

// Stats snapshots the writer's counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Frames:        w.stats.frames,
		Bytes:         w.stats.bytes,
		Txns:          w.stats.txns,
		Syncs:         w.stats.syncs,
		DurableLSN:    w.stats.durableLSN,
		CheckpointLSN: w.stats.checkptLSN,
		CheckpointOps: w.stats.checkptOps,
		LastLSN:       w.lsn,
		Fenced:        w.stats.fenced,
	}
}

// flushReadyLocked encodes and appends every parked transaction whose
// revision predecessors are all on the device, repeating until none is
// ready (flushing one can unblock another).
func (w *Writer) flushReadyLocked() {
	for {
		progress := false
		for i := 0; i < len(w.parked); i++ {
			t := w.parked[i]
			if !w.readyLocked(t) {
				continue
			}
			w.parked = append(w.parked[:i], w.parked[i+1:]...)
			i--
			w.encodeAppendLocked(t)
			progress = true
		}
		if !progress {
			return
		}
	}
}

// readyLocked reports whether every op of t is next in its partition's
// revision sequence. Within one transaction a partition's revisions are
// consecutive (the engine serialized the transaction as a unit), so only
// the first op per partition needs checking — found by a linear scan of
// the earlier ops, which stays allocation-free on this per-commit path
// (transactions carry a handful of ops).
func (w *Writer) readyLocked(t *pendingTxn) bool {
	for i := range t.ops {
		op := &t.ops[i]
		if op.Rev == 0 || earlierOpOnPart(t.ops[:i], op.Part) {
			continue
		}
		next, tracked := w.next[op.Part]
		if !tracked {
			continue // first writer to an untracked partition sets the base
		}
		if op.Rev != next {
			return false
		}
	}
	return true
}

// earlierOpOnPart reports whether ops holds a gate-tracked (Rev != 0)
// operation on part.
func earlierOpOnPart(ops []Op, part int) bool {
	for i := range ops {
		if ops[i].Part == part && ops[i].Rev != 0 {
			return true
		}
	}
	return false
}

// encodeAppendLocked writes t's frame group and advances the gate.
func (w *Writer) encodeAppendLocked(t *pendingTxn) {
	err := w.appendLocked(&Unit{Kind: UnitTxn, Flags: t.flags, Txn: TxnGroup{TxID: t.id, Ops: t.ops}})
	for i := range t.ops {
		op := &t.ops[i]
		if op.Rev != 0 {
			if cur, tracked := w.next[op.Part]; !tracked || op.Rev >= cur {
				w.next[op.Part] = op.Rev + 1
			}
		}
	}
	t.appended = true
	t.end = w.appended
	t.err = err
	w.stats.txns++
	w.sinceSync++
	w.cond.Broadcast()
}

// appendLocked encodes u at the next LSNs and writes it to the device in
// one append, updating counters and failing the writer permanently on
// device errors. The encode buffer is reused by the next append only
// within scratch.Bound: a checkpoint's image is let go once it is counted.
func (w *Writer) appendLocked(u *Unit) error {
	first := w.lsn + 1
	w.buf, w.lsn = appendUnit(w.buf[:0], u, first)
	if err := w.dev.Append(w.buf); err != nil {
		w.failed = err
		w.cond.Broadcast()
		return err
	}
	w.appended += len(w.buf)
	w.stats.frames += w.lsn - first + 1
	w.stats.bytes += uint64(len(w.buf))
	w.buf = scratch.Reset(w.buf)
	if w.onAppend != nil {
		w.onAppend()
	}
	return nil
}

// syncLocked runs one device barrier, releasing the lock while it runs so
// concurrent committers keep appending — that is where the grouping comes
// from. Exactly one syncer runs at a time: callers start one only while
// w.syncing is false, and everyone else waits on w.cond.
func (w *Writer) syncLocked() error {
	w.syncing = true
	target := w.appended
	targetLSN := w.lsn
	w.mu.Unlock()
	err := w.dev.Sync()
	w.mu.Lock()
	w.syncing = false
	if err != nil {
		w.failed = err
		w.cond.Broadcast()
		return err
	}
	w.stats.syncs++
	if target > w.durable {
		w.durable = target
		w.stats.durableLSN = targetLSN
	}
	w.observeSyncLocked(w.sinceSync)
	w.sinceSync = 0
	w.cond.Broadcast()
	return nil
}
