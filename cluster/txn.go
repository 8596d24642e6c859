package cluster

import (
	"bytes"
	"errors"
	"math/bits"
	"slices"
	"time"

	"rhtm"
	"rhtm/internal/scratch"
	"rhtm/obs"
	"rhtm/store"
	"rhtm/wal"
)

// ErrConflict is what every Client operation returns at its first conflict:
// a pending intent on a key it reads or writes, a failed read validation, a
// refused prepare, a phantom, or a torn scan pass. The operation has changed
// nothing; the caller decides whether to try again (kv.Retry does).
var ErrConflict = errors.New("cluster: conflict")

// errPhantom is ErrConflict's sibling for scan-range revalidation failures:
// a key entered (or is about to enter, as a pending intent) a range this
// transaction scanned. It is counted separately and surfaces as
// ErrConflict.
var errPhantom = errors.New("cluster: phantom")

// Client is a session against the cluster: it owns one engine thread per
// System. Like rhtm.Thread, a Client is not safe for concurrent use — each
// goroutine obtains its own from NewClient.
//
// A Client allocates per operation only what it hands back. It owns the one
// Txn that Txn and a cross-System Batch run, reset for every attempt, and
// the scratch of a commit: the stamps and log records of the System it
// writes (w), the participants of a footprint, the coordinator's decision
// record, and a single-System batch's key grouping. Each is trimmed with
// internal/scratch where the operation that grew it ends. Its engine-
// transaction bodies are bound once, by NewClient; a caller hands a body
// its operands through the fields below and clears them after the call.
type Client struct {
	c       *Cluster
	threads []rhtm.Thread
	lastRev uint64 // max revision stamped by the most recent committed Txn/Batch
	// sink, when non-nil, receives the 2PC phase and coordinator-sync
	// stages of this session's commits (SetStageSink). Single-session
	// state like everything else on Client.
	sink obs.StageRecorder

	txn      Txn
	w        localWrites
	parts    []participant
	grouped  []txnKey // a multi-System footprint's keys, grouped by System
	decision []wal.Op
	idx      []int      // batchLocal: the operations, sorted by key
	bkeys    []batchKey // batchLocal: the distinct keys

	readBody, applyBody, batchBody, prepareBody, finishBody func(tx rhtm.Tx) error

	node      *Node         // the System the body runs on
	key       []byte        // read
	withClock bool          // read: also read the System's clock
	rec       Record        // read's result
	clock     uint64        // read's result with withClock
	keys      []txnKey      // applyBody, prepare, finish: the System's keys
	txid      uint64        // prepare, finish
	decide    bool          // finish: apply (true) or discard
	ops       []BatchOp     // batchBody
	results   []BatchResult // batchBody
}

// SetStageSink attaches (or with nil detaches) a per-stage trace sink:
// commits from then on report 2pc_prepare, wal_sync (the coordinator
// decision sync), and 2pc_finish stage durations to it. Client is
// single-session, so callers set it around one call and clear it after;
// the nil default costs one predicted branch per phase.
func (cl *Client) SetStageSink(s obs.StageRecorder) { cl.sink = s }

// NewClient registers a thread on every System's engine and returns the
// session. Panics (via the engines) when a System's thread-ID space is
// oversubscribed (64 threads per engine).
func (c *Cluster) NewClient() *Client {
	cl := &Client{c: c}
	for _, n := range c.nodes {
		cl.threads = append(cl.threads, n.eng.NewThread())
	}
	cl.txn.src = cl
	cl.readBody, cl.applyBody, cl.batchBody = cl.readOn, cl.applyLocal, cl.applyBatch
	cl.prepareBody, cl.finishBody = cl.prepareOn, cl.finishOn
	return cl
}

// LastCommitRev returns the highest revision stamped by this client's most
// recent committed Txn or Batch — 0 for read-only footprints. Like
// everything else on Client it is single-session state: read it right
// after the call returns.
func (cl *Client) LastCommitRev() uint64 { return cl.lastRev }

// StoreStats sums the committed-state store counters of every System, each
// sampled in its own read-only transaction on this client's registered
// threads. Safe to call from running workloads: the counters are plain
// reads that no intent guards, so it never conflicts.
func (cl *Client) StoreStats() (store.Stats, error) {
	var total store.Stats
	for id, n := range cl.c.nodes {
		node := n
		var s store.Stats
		err := cl.threads[id].Atomic(func(tx rhtm.Tx) error {
			s = node.st.Stats(tx)
			return nil
		})
		if err != nil {
			return store.Stats{}, err
		}
		total.Add(s)
	}
	return total, nil
}

// Read returns key's committed record with a read-only engine transaction
// on the owning System. A pending *write* intent makes the value undecided
// (its cross-System writer may commit or abort), so the read returns
// ErrConflict rather than a value that may be mid-replacement; shared read
// intents pin values without changing them and never block a read. Read is
// the Client's half of Source: a Txn's read-throughs are not client-level
// operations, so it counts no local transaction.
func (cl *Client) Read(key []byte) (Record, error) {
	rec, _, err := cl.read(key, false)
	return rec, err
}

// ReadClock is Read plus the owning System's revision clock, both taken in
// one engine transaction, so the pair is one snapshot: the record's
// revision is at most the clock, and a clock at or past a revision proves
// every commit up to it is visible to the read. A follower read is this
// call, and it counts as the one local transaction it is.
func (cl *Client) ReadClock(key []byte) (Record, uint64, error) {
	rec, clock, err := cl.read(key, true)
	if err == nil {
		cl.c.localTxns.Add(1)
	}
	return rec, clock, err
}

// read is Read's engine transaction; with withClock it reads the System's
// revision clock too.
func (cl *Client) read(key []byte, withClock bool) (Record, uint64, error) {
	cl.node, cl.key, cl.withClock = cl.c.nodes[cl.c.router.SystemFor(key)], key, withClock
	err := cl.threads[cl.node.id].Atomic(cl.readBody)
	rec, clock := cl.rec, cl.clock
	cl.key, cl.rec = nil, Record{}
	cl.countIntentWait(err)
	return rec, clock, err
}

// readOn is read's body.
func (cl *Client) readOn(tx rhtm.Tx) error {
	n := cl.node
	if _, held := n.st.WriteIntentOn(tx, cl.key); held {
		return ErrConflict
	}
	cl.rec.Value, cl.rec.Rev, cl.rec.Lease, cl.rec.Found = n.st.Read(tx, cl.key)
	if cl.withClock {
		cl.clock = n.st.Events().Rev(tx)
	}
	return nil
}

// countIntentWait counts a single-System operation turned away by a pending
// intent. Counters of completed operations are the caller's business:
// commitOn counts the commits, Txn read-throughs count nothing.
func (cl *Client) countIntentWait(err error) {
	if err == ErrConflict {
		cl.c.intentWaits.Add(1)
	}
}

// --- multi-key transactions ---

// copyVal clones v, preserving non-nilness: multi-key results use nil to
// mean "absent", so a present empty value must stay a non-nil empty slice.
func copyVal(v []byte) []byte {
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// Record is one committed observation of a key: its value, its revision and
// the lease it is attached to (0 = none); Found is false, and the rest zero,
// for an absent key. Commit validates an observation by revision: a key's
// revision changes on every write, so equal revisions imply the value (and
// lease) are untouched — which also catches ABA (a key changed and changed
// back still advanced its revision).
type Record struct {
	Value []byte
	Rev   uint64
	Lease uint64
	Found bool
}

// Write is one buffered write: Value attached to Lease, or with Delete the
// key's removal.
type Write struct {
	Value  []byte
	Lease  uint64
	Delete bool
}

// Source is the committed state a Txn reads through. A Client is one: Read
// refuses a key under a pending write intent, and ScanSnapshot is the
// validated two-pass scan. The network client is another, reading through
// its server.
type Source interface {
	// Read returns key's committed record, or ErrConflict when a pending
	// write intent leaves it undecided.
	Read(key []byte) (Record, error)
	// ScanSnapshot returns a committed snapshot of [start, end) (nil bounds
	// are unbounded), each entry with its revision, at most limit entries
	// (0 = unbounded).
	ScanSnapshot(start, end []byte, limit int) ([]Entry, error)
}

// readRec is one recorded observation. leaseKnown is false for one a
// snapshot scan seeded: scans carry revisions, not lease attachments.
type readRec struct {
	Record
	leaseKnown bool
}

// Txn is the optimistic buffered transaction (Kung and Robinson's read
// phase): Get reads through its Source and records the observed revision,
// Put and Delete buffer, and Scan overlays the buffer on a committed
// snapshot. Its owner commits it. Client.Txn validates every recorded read
// and applies the buffer atomically — locally when one System owns the
// whole footprint, via two-phase commit when several do; the network
// client ships the Footprint to its server.
//
// The footprint is one slice holding each touched key once, with its
// recorded read and its buffered write: an ascending prefix, then the keys
// added since in ascending runs whose lengths are the binary digits of
// their count, longest first (Bentley and Saxe's logarithmic method). A
// first touch appends a run of one and merges it with the runs as long as
// itself, as a binary counter carries, so n first touches move O(n log n)
// entries where inserting each in place moves O(n²). A lookup is a binary
// search of the prefix and of each run. Scan, Footprint and the commit
// first merge the runs into the prefix, then walk one ascending slice. The
// keys the transaction was handed and the values it buffers are copied into
// a slab it owns; a snapshot's keys are the snapshot's own.
type Txn struct {
	src    Source
	keys   []txnKey
	sorted int      // keys[:sorted] is the ascending prefix
	spare  []txnKey // merges go through it; Scan swaps it with keys
	slab   []byte
	scans  []scanRange
	// conflicted is sticky: once a read returned ErrConflict the attempt
	// can only end in ErrConflict, even if the closure ignored the error —
	// the key it wanted was undecided, so what the closure did next rests
	// on a read it never got.
	conflicted bool
}

// NewTxn starts a buffered transaction reading through src.
func NewTxn(src Source) *Txn { return &Txn{src: src} }

// reset empties t for the next attempt on the same Source. Every buffer is
// released, so an attempt keeps at most scratch.Bound of each afterwards.
func (t *Txn) reset() {
	t.keys, t.spare, t.scans = scratch.Release(t.keys), scratch.Release(t.spare), scratch.Release(t.scans)
	t.slab = scratch.Reset(t.slab)
	t.sorted, t.conflicted = 0, false
}

// note records a read's ErrConflict on the transaction and passes err on.
func (t *Txn) note(err error) error {
	if err == ErrConflict {
		t.conflicted = true
	}
	return err
}

// scanRange is one range a Txn.Scan observed, re-validated at commit for
// phantom protection: a committed key inside it that is not in the read set
// entered after the scan, and a pending write intent inside it is a phantom
// in waiting. Bounds follow Scan's convention: [start, end), nil end
// unbounded (a limited scan records succ(last yielded key) as its end — keys
// past the limit were never observed and are not protected).
type scanRange struct {
	start, end []byte
}

// noBytes is keep's copy of an empty slice: non-nil, and with no capacity
// an append through it cannot write anywhere.
var noBytes = []byte{}

// keep copies b to the end of the slab and returns the copy, clipped so no
// append through it reaches the next one. Like copyVal it never returns
// nil. A slab that grows leaves the earlier copies in its old array, which
// nothing writes again.
func (t *Txn) keep(b []byte, suffix ...byte) []byte {
	if len(b)+len(suffix) == 0 {
		return noBytes
	}
	n := len(t.slab)
	t.slab = append(append(t.slab, b...), suffix...)
	return t.slab[n:len(t.slab):len(t.slab)]
}

// search returns the index of key in the ascending keys and whether it is
// there.
func search(keys []txnKey, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(keys[m].key, key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(keys) && bytes.Equal(keys[lo].key, key)
}

// find returns the index of key in the footprint, or -1: a binary search of
// the prefix, then of each run, longest first.
func (t *Txn) find(key []byte) int {
	if i, ok := search(t.keys[:t.sorted], key); ok {
		return i
	}
	for lo, m := t.sorted, len(t.keys)-t.sorted; m > 0; {
		s := 1 << (bits.Len(uint(m)) - 1)
		if i, ok := search(t.keys[lo:lo+s], key); ok {
			return lo + i
		}
		lo, m = lo+s, m-s
	}
	return -1
}

// add puts a key the footprint does not hold yet, with a slab copy of the
// key: appended as a run of one, then merged with each run as long as the
// one it makes, as a binary counter carries.
func (t *Txn) add(k txnKey) {
	k.key = t.keep(k.key)
	t.keys = append(t.keys, k)
	n, m := len(t.keys), len(t.keys)-t.sorted
	for s := 1; m&s == 0; s <<= 1 {
		t.merge(n-2*s, n-s, n)
	}
}

// sortKeys merges the runs into the prefix, shortest first, so the whole
// footprint is ascending.
func (t *Txn) sortKeys() {
	n := len(t.keys)
	for m := n - t.sorted; m > 0; m &= m - 1 {
		lo := t.sorted + m&(m-1) // the shortest run left starts here
		t.merge(lo, lo+m&-m, n)
	}
	t.merge(0, t.sorted, n)
	t.sorted = n
}

// merge makes keys[lo:hi] ascending from its ascending halves split at mid,
// from the back, with the second half set aside in spare. Halves already in
// order move nothing.
func (t *Txn) merge(lo, mid, hi int) {
	if lo == mid || mid == hi || bytes.Compare(t.keys[mid-1].key, t.keys[mid].key) < 0 {
		return
	}
	b := append(t.spare[:0], t.keys[mid:hi]...)
	i, j, k := mid-1, len(b)-1, hi-1
	for ; i >= lo && j >= 0; k-- {
		if bytes.Compare(t.keys[i].key, b[j].key) > 0 {
			t.keys[k], i = t.keys[i], i-1
		} else {
			t.keys[k], j = b[j], j-1
		}
	}
	copy(t.keys[lo:k+1], b[:j+1]) // what is left of keys[lo:i+1] is in place
	t.spare = b
}

// buffered returns key's buffered write, or nil.
func (t *Txn) buffered(key []byte) *Write {
	if i := t.find(key); i >= 0 && t.keys[i].written {
		return &t.keys[i].write
	}
	return nil
}

// buffer records a write of key, replacing any earlier one.
func (t *Txn) buffer(key []byte, w Write) {
	if i := t.find(key); i >= 0 {
		t.keys[i].write, t.keys[i].written = w, true
		return
	}
	t.add(txnKey{key: key, write: w, written: true})
}

// Get returns key's value as of this transaction: buffered writes win,
// then the first committed read is reused (one consistent observation per
// key per attempt).
func (t *Txn) Get(key []byte) ([]byte, bool, error) {
	if w := t.buffered(key); w != nil {
		if w.Delete {
			return nil, false, nil
		}
		return copyVal(w.Value), true, nil
	}
	rec, err := t.read(key)
	if err != nil || !rec.Found {
		return nil, false, err
	}
	return copyVal(rec.Value), true, nil
}

// read returns the transaction's recorded observation of key, reading
// through to committed state (and recording the observation for commit
// validation) on first touch.
func (t *Txn) read(key []byte) (readRec, error) {
	i := t.find(key)
	if i >= 0 && t.keys[i].wasRead {
		return t.keys[i].read, nil
	}
	rec, err := t.src.Read(key)
	if err != nil {
		return readRec{}, t.note(err)
	}
	r := readRec{Record: rec, leaseKnown: true}
	if i >= 0 {
		t.keys[i].read, t.keys[i].wasRead = r, true
	} else {
		t.add(txnKey{key: key, read: r, wasRead: true})
	}
	return r, nil
}

// Revision returns key's revision as of this transaction (0 for an absent
// key). Buffered writes have no revision yet — they are assigned one at
// commit — so Revision reports the committed observation the commit will
// validate.
func (t *Txn) Revision(key []byte) (uint64, bool, error) {
	rec, err := t.read(key)
	if err != nil {
		return 0, false, err
	}
	return rec.Rev, rec.Found, nil
}

// Lease returns key's attached lease id as of this transaction (0 = none).
// Observations seeded by a snapshot scan lack lease metadata; Lease
// re-reads the committed entry then — divergence from the scan's revision
// is caught by commit validation like any other conflict.
func (t *Txn) Lease(key []byte) (uint64, bool, error) {
	if w := t.buffered(key); w != nil {
		if w.Delete {
			return 0, false, nil
		}
		return w.Lease, true, nil
	}
	rec, err := t.read(key)
	if err != nil {
		return 0, false, err
	}
	if rec.Found && !rec.leaseKnown {
		fresh, err := t.src.Read(key)
		if err != nil {
			return 0, false, t.note(err)
		}
		return fresh.Lease, fresh.Found, nil
	}
	return rec.Lease, rec.Found, nil
}

// Put buffers key→value (the slice is copied), detaching any lease.
func (t *Txn) Put(key, value []byte) {
	t.buffer(key, Write{Value: t.keep(value)})
}

// PutLease buffers key→value with a lease attachment.
func (t *Txn) PutLease(key, value []byte, lease uint64) {
	t.buffer(key, Write{Value: t.keep(value), Lease: lease})
}

// Delete buffers key's removal and reports whether key was present as of
// this transaction. It records the committed observation even when a
// buffered write decides the answer, so every buffered delete carries one:
// deleting a key that was absent before the transaction changes nothing,
// and an owner that commits elsewhere must be able to tell.
func (t *Txn) Delete(key []byte) (bool, error) {
	present, err := t.Has(key)
	if err != nil {
		return false, err
	}
	t.buffer(key, Write{Delete: true})
	return present, nil
}

// Has reports whether key is present as of this transaction without
// copying its value: a buffered write decides, else the committed
// observation, which Has records either way, as Delete does.
func (t *Txn) Has(key []byte) (bool, error) {
	rec, err := t.read(key)
	if err != nil {
		return false, err
	}
	if w := t.buffered(key); w != nil {
		return !w.Delete, nil
	}
	return rec.Found, nil
}

// inRange reports start <= k < end with nil bounds unbounded.
func inRange(k, start, end []byte) bool {
	return (start == nil || bytes.Compare(k, start) >= 0) && (end == nil || bytes.Compare(k, end) < 0)
}

// Scan returns an ordered snapshot of [start, end) as of this transaction:
// a committed snapshot from the Source overlaid with the transaction's own
// buffered writes and earlier reads, at most limit entries (0 =
// unbounded). Every committed entry the scan yields is recorded as a read,
// so commit re-validates it — and the *range itself* is recorded too, so
// Client's commit additionally refuses when a key outside the read set has
// entered it (phantom protection; see scansValid for the exact guarantee).
// A limited scan protects only the observed prefix, up to the successor of
// the last key the snapshot fetched.
func (t *Txn) Scan(start, end []byte, limit int) ([]Entry, error) {
	fetch := 0
	if limit > 0 {
		// Buffered deletes can evict entries from the prefix; over-fetch by
		// the write-set size so the overlay can backfill.
		fetch = limit
		for i := range t.keys {
			if t.keys[i].written {
				fetch++
			}
		}
	}
	raw, err := t.src.ScanSnapshot(start, end, fetch)
	if err != nil {
		return nil, t.note(err)
	}
	var r scanRange // nil bounds stay nil (unbounded)
	if start != nil {
		r.start = t.keep(start)
	}
	if end != nil {
		r.end = t.keep(end)
	}
	if fetch > 0 && len(raw) == fetch {
		// The snapshot was clipped at the over-fetch bound: only the prefix
		// up to the last fetched key was observed, so only it is protected.
		r.end = t.keep(raw[len(raw)-1].Key, 0)
	}
	t.scans = append(t.scans, r)

	// One merge of two ascending sequences: the footprint and the snapshot.
	// A snapshot key the transaction has not read is recorded as read; one
	// it has keeps its first observation (commit validation catches a
	// snapshot that diverged from it). The overlay yields, in key order,
	// every snapshot key as the transaction sees it and every buffered put
	// inside the range.
	t.sortKeys()
	merged := slices.Grow(t.spare[:0], len(t.keys)+len(raw))
	var out []Entry
	yield := func(k *txnKey, inSnapshot bool) {
		switch {
		case k.written:
			if !k.write.Delete && (inSnapshot || inRange(k.key, start, end)) {
				out = append(out, Entry{Key: copyVal(k.key), Value: copyVal(k.write.Value)})
			}
		case inSnapshot && k.read.Found:
			out = append(out, Entry{Key: copyVal(k.key), Value: copyVal(k.read.Value)})
		}
	}
	i := 0
	for _, e := range raw {
		for ; i < len(t.keys) && bytes.Compare(t.keys[i].key, e.Key) < 0; i++ {
			merged = append(merged, t.keys[i])
			yield(&merged[len(merged)-1], false)
		}
		if i < len(t.keys) && bytes.Equal(t.keys[i].key, e.Key) {
			merged = append(merged, t.keys[i])
			i++
		} else {
			merged = append(merged, txnKey{key: e.Key})
		}
		k := &merged[len(merged)-1]
		if !k.wasRead {
			k.read, k.wasRead = readRec{Record: Record{Value: e.Value, Rev: e.Rev, Found: true}}, true
		}
		yield(k, true)
	}
	for ; i < len(t.keys); i++ {
		merged = append(merged, t.keys[i])
		yield(&merged[len(merged)-1], false)
	}
	clear(t.keys)
	t.keys, t.spare, t.sorted = merged, t.keys[:0], len(merged)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// txnKey is one key of a transaction's footprint with its recorded read
// (wasRead) and/or buffered write (written), and the System owning it.
type txnKey struct {
	key     []byte
	node    int
	read    readRec
	write   Write
	wasRead bool
	written bool
}

// Footprint calls fn once for every key the transaction read or wrote, in
// ascending key order, with the committed observation it recorded (nil:
// never read) and the write it buffered (nil: only read). An owner that
// commits the transaction elsewhere reads it through this: the network
// client ships the observations as commit conditions and the writes as ops.
func (t *Txn) Footprint(fn func(key []byte, read *Record, write *Write)) {
	t.sortKeys()
	for i := range t.keys {
		k := &t.keys[i]
		var r *Record
		var w *Write
		if k.wasRead {
			r = &k.read.Record
		}
		if k.written {
			w = &k.write
		}
		fn(k.key, r, w)
	}
}

// Scans calls fn once for every range the transaction's scans recorded for
// phantom protection, in scan order, with Scan's bounds ([start, end), nil
// unbounded). The network client ships them with its Footprint so the
// server re-validates them as scansValid does here.
func (t *Txn) Scans(fn func(start, end []byte)) {
	for _, r := range t.scans {
		fn(r.start, r.end)
	}
}

// Txn runs fn once, optimistically, on a transaction reading through cl,
// and commits its buffer. A non-nil error from fn aborts without committing
// and is returned as-is; a conflict — at commit, or on any read fn made,
// whether or not fn passed the error on — is ErrConflict, and the caller
// may run the whole body again (kv.Retry does, so fn must be safe to
// re-execute). Reads during fn are individually committed values but are
// only guaranteed mutually consistent once commit validation passes — the
// standard OCC contract. The transaction is the Client's own, reset when
// Txn returns, so fn must not keep it.
func (cl *Client) Txn(fn func(tx *Txn) error) error {
	defer cl.txn.reset()
	if err := fn(&cl.txn); err != nil {
		return err
	}
	return cl.commit()
}

// participant is one System of a commit's footprint with its keys,
// ascending.
type participant struct {
	id   int
	keys []txnKey
}

// footprint groups the transaction's keys by owning System: participants
// ascending and keys ascending within each — the deterministic global
// acquisition order. Once its runs are merged the footprint is ascending,
// so one System's keys are the footprint itself, and several Systems' are the footprint
// split stably into cl.grouped.
func (cl *Client) footprint() []participant {
	cl.txn.sortKeys()
	keys := cl.txn.keys
	parts := cl.parts[:0]
	if len(keys) == 0 {
		return parts
	}
	one := true
	for i := range keys {
		keys[i].node = cl.c.router.SystemFor(keys[i].key)
		one = one && keys[i].node == keys[0].node
	}
	if one {
		return append(parts, participant{id: keys[0].node, keys: keys})
	}
	grouped := slices.Grow(cl.grouped[:0], len(keys)) // never reallocated below
	for id := range cl.c.nodes {
		lo := len(grouped)
		for i := range keys {
			if keys[i].node == id {
				grouped = append(grouped, keys[i])
			}
		}
		if len(grouped) > lo {
			parts = append(parts, participant{id: id, keys: grouped[lo:]})
		}
	}
	cl.grouped = grouped
	return parts
}

// commit validates and applies the buffer of the Client's transaction, or
// returns ErrConflict.
func (cl *Client) commit() error {
	t := &cl.txn
	cl.lastRev = 0
	if t.conflicted {
		return ErrConflict // counted where the read met the intent
	}
	// A lone committed read is its own snapshot: Read refused any write
	// intent, and there is no second observation for it to disagree with,
	// so re-validating it in another engine transaction proves nothing. It
	// counts as the local transaction it was; an empty one counts as none.
	if len(t.scans) == 0 && (len(t.keys) == 0 || len(t.keys) == 1 && !t.keys[0].written) {
		cl.c.localTxns.Add(uint64(len(t.keys)))
		return nil
	}
	parts := cl.footprint()
	cl.parts = parts
	defer func() { cl.parts, cl.grouped = scratch.Release(cl.parts), scratch.Release(cl.grouped) }()
	// Phantom protection outside the footprint: hash routing interleaves a
	// scanned range over every System, but the commit path only validates
	// participant Systems. Check the rest read-only first. On a
	// single-System cluster every range is re-checked inside the commit's
	// own engine transaction, making the protection airtight; with several
	// Systems the window between this check and the applies remains
	// (DESIGN.md §13).
	if len(t.scans) > 0 {
		for _, n := range cl.c.nodes {
			if slices.ContainsFunc(parts, func(p participant) bool { return p.id == n.id }) {
				continue
			}
			node := n
			err := cl.threads[n.id].Atomic(func(tx rhtm.Tx) error {
				if !scansValid(tx, node, t) {
					return errPhantom
				}
				return nil
			})
			if err == errPhantom {
				cl.c.phantomConflicts.Add(1)
				return ErrConflict
			}
			if err != nil {
				return err
			}
		}
	}
	switch len(parts) {
	case 0:
		return nil // scan-only, validated above
	case 1:
		return cl.commitLocal(parts[0].id, parts[0].keys)
	default:
		return cl.commitCross(parts)
	}
}

// localWrites stamps the writes of one engine transaction — a single-System
// commit, or one participant's phase 2: each takes its revision from the
// store, the transaction keeps the highest, and with a log attached each
// becomes a record of the System's stream. Its records share the keys and
// values of the operation they stamp, which outlive the log append.
type localWrites struct {
	n      *Node
	log    bool
	recs   []wal.Op
	maxRev uint64
}

// begin starts (or, on an engine abort, restarts) a transaction on n.
func (w *localWrites) begin(n *Node, log bool) {
	w.n, w.log, w.recs, w.maxRev = n, log, w.recs[:0], 0
}

// end releases the records once they are logged.
func (w *localWrites) end() { w.recs = scratch.Release(w.recs) }

// free reports whether the commit may touch key without waiting on 2PC: a
// written key waits for any pending intent (pinned readers too), a key it
// only reads for a write intent alone.
func (w *localWrites) free(tx rhtm.Tx, key []byte, written bool) bool {
	if written {
		return !w.n.st.AnyIntentOn(tx, key)
	}
	_, held := w.n.st.WriteIntentOn(tx, key)
	return !held
}

// stamp keeps one applied write's revision and record; Rev 0 (a released
// read intent, a delete of an absent key) changed nothing.
func (w *localWrites) stamp(op wal.Op) {
	if op.Rev == 0 {
		return
	}
	w.maxRev = max(w.maxRev, op.Rev)
	if w.log {
		w.recs = append(w.recs, op)
	}
}

// write applies one buffered write to key and stamps it. For a delete it
// reports whether key was present; removing an absent key writes nothing.
func (w *localWrites) write(tx rhtm.Tx, key []byte, b Write) (bool, error) {
	kind := wal.OpPut
	if b.Delete {
		kind = wal.OpDelete
	}
	op, err := w.n.st.Write(tx, wal.Op{Kind: kind, Key: key, Value: b.Value, Lease: b.Lease})
	if err != nil || op.Rev == 0 {
		return false, err
	}
	w.stamp(op)
	return b.Delete, nil
}

// commitOn is the one single-System commit: body (applyBody or batchBody)
// runs as one engine transaction on System nodeID, writing through cl.w
// (which it begins afresh on every engine re-execution), and once it
// committed the transaction counts as local, raises LastCommitRev and is
// logged to the System's stream. No intents are needed: the engine's own
// conflict detection makes the body atomic against every other transaction
// on that System, and the body's intent checks (w.free) keep it correct
// against in-flight 2PC. The caller keeps its own checks and counts its
// refusals.
func (cl *Client) commitOn(nodeID int, body func(tx rhtm.Tx) error) error {
	cl.node = cl.c.nodes[nodeID]
	err := cl.threads[nodeID].Atomic(body)
	if err == nil {
		cl.c.localTxns.Add(1)
		cl.lastRev = max(cl.lastRev, cl.w.maxRev)
		err = cl.logLocal(nodeID, cl.w.recs)
	}
	cl.w.end()
	return err
}

// commitLocal validates and applies a single-System footprint through
// commitOn: scan ranges first, then each key's intents and recorded read,
// then the buffered writes.
func (cl *Client) commitLocal(nodeID int, keys []txnKey) error {
	cl.keys = keys
	err := cl.commitOn(nodeID, cl.applyBody)
	cl.keys = nil
	switch err {
	case ErrConflict:
		cl.c.localConflicts.Add(1)
	case errPhantom:
		cl.c.phantomConflicts.Add(1)
		err = ErrConflict
	}
	return err
}

// applyLocal is commitLocal's body.
func (cl *Client) applyLocal(tx rhtm.Tx) error {
	w, keys := &cl.w, cl.keys
	w.begin(cl.node, cl.c.wal != nil)
	if len(cl.txn.scans) > 0 && !scansValid(tx, w.n, &cl.txn) {
		return errPhantom
	}
	for i := range keys {
		k := &keys[i]
		if !w.free(tx, k.key, k.written) || k.wasRead && !validRead(tx, w.n, k) {
			return ErrConflict
		}
	}
	for i := range keys {
		if k := &keys[i]; k.written {
			if _, err := w.write(tx, k.key, k.write); err != nil {
				return err
			}
		}
	}
	return nil
}

// commitCross is the one two-phase-commit round: prepare → durable
// decision → finish → resolution mark. Every crash window and both fence
// arms of DESIGN.md §6/§9 live here and nowhere else. ErrConflict means a
// prepare conflict aborted the round and the caller may run it again.
func (cl *Client) commitCross(parts []participant) error {
	c := cl.c
	c.crossTxns.Add(1)
	txid := c.nextTxID.Add(1)

	// Phase 1: prepare each participant in ascending id order. One engine
	// transaction per participant validates its reads and installs its
	// intents, so a refused prepare leaves that System untouched.
	prepared := 0
	var conflict bool
	var hard error
	var prepStart time.Time
	if c.prepareHist != nil || cl.sink != nil {
		prepStart = time.Now()
	}
	for _, p := range parts {
		err := cl.prepare(p.id, txid, p.keys)
		if err == nil {
			prepared++
			continue
		}
		if err == ErrConflict {
			c.prepareConflicts.Add(1)
			conflict = true
		} else if err == errPhantom {
			c.phantomConflicts.Add(1)
			conflict = true
		} else {
			hard = err
		}
		break
	}
	if c.prepareHist != nil || cl.sink != nil {
		d := time.Since(prepStart)
		c.prepareHist.Observe(uint64(d)) // nil instrument is a no-op
		if cl.sink != nil {
			cl.sink.Stage(obs.Stage2PCPrepare, d)
		}
	}

	// Decision: commit iff every participant prepared. The verdict is the
	// commit point; phase 2 merely discharges it. With a WAL attached,
	// the decision (with its write set) is synced to the coordinator log
	// before any apply runs — the *durable* commit point — and the region
	// from decision to resolution mark holds the checkpoint drain lock.
	commit := !conflict && hard == nil
	var decisionOps []wal.Op
	if c.wal != nil && commit {
		decisionOps = cl.crossDecisionOps(parts)
		defer func() { cl.decision = scratch.Release(decisionOps) }()
	}
	if len(decisionOps) > 0 {
		c.walMu.RLock()
		defer c.walMu.RUnlock()
		var syncStart time.Time
		if cl.sink != nil {
			syncStart = time.Now()
		}
		err := c.wal.Coord.Commit(txid, wal.FlagCross, decisionOps)
		if cl.sink != nil {
			// The coordinator append blocks through its group-commit sync:
			// this duration is the durable-commit-point wait.
			cl.sink.Stage(obs.StageWALSync, time.Since(syncStart))
		}
		if err != nil {
			if errors.Is(err, wal.ErrFenced) {
				// The durable commit point was refused by an epoch fence:
				// the transaction aborted by omission, exactly as a crash
				// here would decide it. Abort it in memory too — releasing
				// the prepared intents keeps the deposed primary internally
				// consistent instead of wedging its remaining clients.
				for _, p := range parts[:prepared] {
					_ = cl.finish(p.id, txid, p.keys, false)
				}
				c.crossAborts.Add(1)
			}
			return err
		}
	}
	if !commit {
		for _, p := range parts[:prepared] {
			if err := cl.finish(p.id, txid, p.keys, false); err != nil && hard == nil {
				hard = err
			}
		}
		c.crossAborts.Add(1)
		if hard == nil {
			hard = ErrConflict
		}
		return hard
	}
	var finStart time.Time
	if c.finishHist != nil || cl.sink != nil {
		finStart = time.Now()
	}
	resolved := true
	for _, p := range parts {
		if err := cl.finish(p.id, txid, p.keys, true); err != nil {
			if errors.Is(err, wal.ErrFenced) {
				// The decision is already durably logged — the transaction
				// IS committed. Keep discharging the remaining intents, but
				// this participant's applies never reached its stream, so
				// the decision must stay in doubt: the failover resolves it
				// forward from the decision record.
				resolved = false
				continue
			}
			return err
		}
	}
	if c.finishHist != nil || cl.sink != nil {
		d := time.Since(finStart)
		c.finishHist.Observe(uint64(d)) // nil instrument is a no-op
		if cl.sink != nil {
			cl.sink.Stage(obs.Stage2PCFinish, d)
		}
	}
	if len(decisionOps) > 0 && resolved {
		if err := c.wal.Coord.Mark(txid, 0); err != nil && !errors.Is(err, wal.ErrFenced) {
			// A missing resolution mark only costs recovery a redundant
			// redo; a fenced mark is not a commit failure.
			return err
		}
	}
	c.crossCommits.Add(1)
	return nil
}

// crossDecisionOps serializes a cross transaction's write set for the
// coordinator decision log, into cl.decision: one op per written key, Part
// naming the owning System, revision 0 (revisions are assigned at apply
// time). Read-only footprints yield nothing — there is nothing to recover
// forward.
func (cl *Client) crossDecisionOps(parts []participant) []wal.Op {
	ops := cl.decision[:0]
	for _, p := range parts {
		for i := range p.keys {
			k := &p.keys[i]
			if !k.written {
				continue
			}
			op := wal.Op{Part: p.id, Key: k.key}
			if k.write.Delete {
				op.Kind = wal.OpDelete
			} else {
				op.Kind = wal.OpPut
				op.Value = k.write.Value
				op.Lease = k.write.Lease
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// validRead re-checks one recorded read against committed state, by
// revision: present keys must still carry the observed revision, absent
// keys must still be absent.
func validRead(tx rhtm.Tx, n *Node, k *txnKey) bool {
	rev, ok := n.st.RevOf(tx, k.key)
	return ok == k.read.Found && (!ok || rev == k.read.Rev)
}

// scansValid re-checks every recorded scan range against System n's
// committed state: a committed key inside a range but outside the read set
// entered after the scan (a phantom), and a pending write intent inside a
// range is a phantom in waiting — both refuse the commit. Keys that ARE in
// the read set are validated by revision like any other read, so range
// validation plus read validation together pin the exact scanned contents.
// Must run before this transaction installs its own intents on n (it would
// mistake them for a concurrent writer's).
func scansValid(tx rhtm.Tx, n *Node, t *Txn) bool {
	for _, r := range t.scans {
		clean := true
		n.st.ScanLimitRev(tx, r.start, r.end, 0, func(k, v []byte, rev uint64) bool {
			if i := t.find(k); i < 0 || !t.keys[i].wasRead {
				clean = false
				return false
			}
			return true
		})
		if !clean || n.st.HasWriteIntentInRange(tx, r.start, r.end) {
			return false
		}
	}
	return true
}

// prepare runs the phase-1 transaction on one participant.
func (cl *Client) prepare(nodeID int, txid uint64, keys []txnKey) error {
	cl.node, cl.txid, cl.keys = cl.c.nodes[nodeID], txid, keys
	err := cl.threads[nodeID].Atomic(cl.prepareBody)
	cl.keys = nil
	return err
}

// prepareOn is prepare's body. The scan-range check runs first, before any
// of this transaction's own intents land.
func (cl *Client) prepareOn(tx rhtm.Tx) error {
	n := cl.node
	if len(cl.txn.scans) > 0 && !scansValid(tx, n, &cl.txn) {
		return errPhantom
	}
	for i := range cl.keys {
		k := &cl.keys[i]
		if k.wasRead && !validRead(tx, n, k) {
			return ErrConflict
		}
		kind, val, lease := store.IntentRead, []byte(nil), uint64(0)
		if k.written {
			if k.write.Delete {
				kind = store.IntentDelete
			} else {
				kind, val, lease = store.IntentPut, k.write.Value, k.write.Lease
			}
		}
		if err := n.st.PrepareIntent(tx, k.key, cl.txid, kind, val, lease); err != nil {
			if err == store.ErrIntentHeld {
				return ErrConflict
			}
			return err
		}
	}
	return nil
}

// finish runs the phase-2 transaction on one participant: apply on commit,
// discard on abort. Failures here are protocol bugs (the intents must
// exist and be ours), surfaced as hard errors. With a WAL attached, the
// applies are logged to the participant's stream under the cluster
// transaction id (recovery's applied-detection keys on it) and forced
// durable before the coordinator marks the transaction resolved. Their
// records share the transaction's keys and the values the store read back,
// which outlive the append.
func (cl *Client) finish(nodeID int, txid uint64, keys []txnKey, commit bool) error {
	cl.node, cl.txid, cl.keys, cl.decide = cl.c.nodes[nodeID], txid, keys, commit
	err := cl.threads[nodeID].Atomic(cl.finishBody)
	cl.keys = nil
	if err == nil {
		cl.lastRev = max(cl.lastRev, cl.w.maxRev)
		err = cl.logApply(nodeID, txid, cl.w.recs)
	}
	cl.w.end()
	return err
}

// finishOn is finish's body; it re-executes on engine aborts, so it starts
// the stamps afresh every time.
func (cl *Client) finishOn(tx rhtm.Tx) error {
	w := &cl.w
	w.begin(cl.node, cl.c.wal != nil)
	for i := range cl.keys {
		key := cl.keys[i].key
		if !cl.decide {
			if err := w.n.st.DiscardIntent(tx, key, cl.txid); err != nil {
				return err
			}
			continue
		}
		op, err := w.n.st.ApplyIntent(tx, key, cl.txid)
		if err != nil {
			return err
		}
		w.stamp(op)
	}
	return nil
}
