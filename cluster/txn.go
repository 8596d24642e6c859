package cluster

import (
	"bytes"
	"errors"
	"slices"
	"time"

	"rhtm"
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
type Client struct {
	c       *Cluster
	threads []rhtm.Thread
	lastRev uint64 // max revision stamped by the most recent committed Txn/Batch
	// sink, when non-nil, receives the 2PC phase and coordinator-sync
	// stages of this session's commits (SetStageSink). Single-session
	// state like everything else on Client.
	sink obs.StageRecorder
}

// SetStageSink attaches (or with nil detaches) a per-stage trace sink:
// commits from then on report 2pc_prepare, wal_sync (the coordinator
// decision sync), and 2pc_finish stage durations to it. Client is
// single-session, so callers set it around one call and clear it after;
// the nil default costs one predicted branch per phase.
func (cl *Client) SetStageSink(s obs.StageRecorder) { cl.sink = s }

// NewClient registers a thread on every System's engine and returns the
// session. Panics (via the engines) when a System's thread-ID space is
// oversubscribed; see Config.MaxThreads.
func (c *Cluster) NewClient() *Client {
	cl := &Client{c: c}
	for _, n := range c.nodes {
		cl.threads = append(cl.threads, n.eng.NewThread())
	}
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
	n := cl.c.nodes[cl.c.router.SystemFor(key)]
	var rec Record
	err := cl.threads[n.id].Atomic(func(tx rhtm.Tx) error {
		if _, held := n.st.WriteIntentOn(tx, key); held {
			return ErrConflict
		}
		rec.Value, rec.Rev, rec.Lease, rec.Found = n.st.Read(tx, key)
		return nil
	})
	cl.countIntentWait(err)
	return rec, err
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
type Txn struct {
	src    Source
	reads  map[string]readRec
	writes map[string]Write
	scans  []scanRange
	// conflicted is sticky: once a read returned ErrConflict the attempt
	// can only end in ErrConflict, even if the closure ignored the error —
	// the key it wanted was undecided, so what the closure did next rests
	// on a read it never got.
	conflicted bool
}

// NewTxn starts a buffered transaction reading through src.
func NewTxn(src Source) *Txn { return &Txn{src: src} }

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

// observe records the first observation of key.
func (t *Txn) observe(key string, r readRec) {
	if t.reads == nil {
		t.reads = make(map[string]readRec)
	}
	t.reads[key] = r
}

// buffer records a write of key, replacing any earlier one.
func (t *Txn) buffer(key []byte, w Write) {
	if t.writes == nil {
		t.writes = make(map[string]Write)
	}
	t.writes[string(key)] = w
}

// Get returns key's value as of this transaction: buffered writes win,
// then the first committed read is reused (one consistent observation per
// key per attempt).
func (t *Txn) Get(key []byte) ([]byte, bool, error) {
	if w, ok := t.writes[string(key)]; ok {
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
	if r, ok := t.reads[string(key)]; ok {
		return r, nil
	}
	rec, err := t.src.Read(key)
	if err != nil {
		return readRec{}, t.note(err)
	}
	r := readRec{Record: rec, leaseKnown: true}
	t.observe(string(key), r)
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
	if w, ok := t.writes[string(key)]; ok {
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
	t.buffer(key, Write{Value: copyVal(value)})
}

// PutLease buffers key→value with a lease attachment.
func (t *Txn) PutLease(key, value []byte, lease uint64) {
	t.buffer(key, Write{Value: copyVal(value), Lease: lease})
}

// Delete buffers key's removal and reports whether key was present as of
// this transaction. It records the committed observation even when a
// buffered write decides the answer, so every buffered delete carries one:
// deleting a key that was absent before the transaction changes nothing,
// and an owner that commits elsewhere must be able to tell.
func (t *Txn) Delete(key []byte) (bool, error) {
	rec, err := t.read(key)
	if err != nil {
		return false, err
	}
	present := rec.Found
	if w, ok := t.writes[string(key)]; ok {
		present = !w.Delete
	}
	t.buffer(key, Write{Delete: true})
	return present, nil
}

// inRange reports start <= k < end with nil bounds unbounded.
func inRange(k string, start, end []byte) bool {
	return (start == nil || k >= string(start)) && (end == nil || k < string(end))
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
		fetch = limit + len(t.writes)
	}
	raw, err := t.src.ScanSnapshot(start, end, fetch)
	if err != nil {
		return nil, t.note(err)
	}
	var r scanRange // nil bounds stay nil (unbounded)
	if start != nil {
		r.start = copyVal(start)
	}
	if end != nil {
		r.end = copyVal(end)
	}
	if fetch > 0 && len(raw) == fetch {
		// The snapshot was clipped at the over-fetch bound: only the prefix
		// up to the last fetched key was observed, so only it is protected.
		last := raw[len(raw)-1].Key
		r.end = append(append(make([]byte, 0, len(last)+1), last...), 0)
	}
	t.scans = append(t.scans, r)
	merged := map[string][]byte{}
	for _, e := range raw {
		k := string(e.Key)
		if r, seen := t.reads[k]; seen {
			// Reuse the transaction's first observation of the key (commit
			// validation will catch divergence from the snapshot).
			if r.Found {
				merged[k] = r.Value
			}
			continue
		}
		t.observe(k, readRec{Record: Record{Value: e.Value, Rev: e.Rev, Found: true}})
		merged[k] = e.Value
	}
	for k, w := range t.writes {
		if !inRange(k, start, end) {
			continue
		}
		if w.Delete {
			delete(merged, k)
		} else {
			merged[k] = w.Value
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	out := make([]Entry, len(keys))
	for i, k := range keys {
		out[i] = Entry{Key: []byte(k), Value: copyVal(merged[k])}
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

// keys lists the transaction's footprint, unordered.
func (t *Txn) keys() []txnKey {
	keys := make([]txnKey, 0, len(t.reads)+len(t.writes))
	for k, r := range t.reads {
		tk := txnKey{key: []byte(k), read: r, wasRead: true}
		tk.write, tk.written = t.writes[k]
		keys = append(keys, tk)
	}
	for k, w := range t.writes {
		if _, ok := t.reads[k]; !ok {
			keys = append(keys, txnKey{key: []byte(k), write: w, written: true})
		}
	}
	return keys
}

// Footprint calls fn once for every key the transaction read or wrote, in
// ascending key order, with the committed observation it recorded (nil:
// never read) and the write it buffered (nil: only read). An owner that
// commits the transaction elsewhere reads it through this: the network
// client ships the observations as commit conditions and the writes as ops.
func (t *Txn) Footprint(fn func(key []byte, read *Record, write *Write)) {
	keys := t.keys()
	slices.SortFunc(keys, func(a, b txnKey) int { return bytes.Compare(a.key, b.key) })
	for i := range keys {
		k := &keys[i]
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

// Txn runs fn once, optimistically, on a transaction reading through cl,
// and commits its buffer. A non-nil error from fn aborts without committing
// and is returned as-is; a conflict — at commit, or on any read fn made,
// whether or not fn passed the error on — is ErrConflict, and the caller
// may run the whole body again (kv.Retry does, so fn must be safe to
// re-execute). Reads during fn are individually committed values but are
// only guaranteed mutually consistent once commit validation passes — the
// standard OCC contract.
func (cl *Client) Txn(fn func(tx *Txn) error) error {
	t := NewTxn(cl)
	if err := fn(t); err != nil {
		return err
	}
	return cl.commit(t)
}

// participant is one System of a commit's footprint with its keys,
// ascending.
type participant struct {
	id   int
	keys []txnKey
}

// footprint groups the transaction's keys by owning System: participants
// ascending and keys ascending within each — the deterministic global
// acquisition order.
func (cl *Client) footprint(t *Txn) []participant {
	keys := t.keys()
	for i := range keys {
		keys[i].node = cl.c.router.SystemFor(keys[i].key)
	}
	slices.SortFunc(keys, func(a, b txnKey) int {
		if a.node != b.node {
			return a.node - b.node
		}
		return bytes.Compare(a.key, b.key)
	})
	var parts []participant
	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		for hi < len(keys) && keys[hi].node == keys[lo].node {
			hi++
		}
		parts = append(parts, participant{id: keys[lo].node, keys: keys[lo:hi]})
	}
	return parts
}

// commit validates and applies t's buffer, or returns ErrConflict.
func (cl *Client) commit(t *Txn) error {
	cl.lastRev = 0
	if t.conflicted {
		return ErrConflict // counted where the read met the intent
	}
	// A lone committed read is its own snapshot: Read refused any write
	// intent, and there is no second observation for it to disagree with,
	// so re-validating it in another engine transaction proves nothing. It
	// counts as the local transaction it was; an empty one counts as none.
	if len(t.writes) == 0 && len(t.scans) == 0 && len(t.reads) <= 1 {
		cl.c.localTxns.Add(uint64(len(t.reads)))
		return nil
	}
	parts := cl.footprint(t)
	// Phantom protection outside the footprint: hash routing interleaves a
	// scanned range over every System, but the commit path only validates
	// participant Systems. Check the rest read-only first. On a
	// single-System cluster every range is re-checked inside the commit's
	// own engine transaction, making the protection airtight; with several
	// Systems the window between this check and the applies remains
	// (DESIGN.md §13).
	if len(t.scans) > 0 {
		inFoot := make(map[int]bool, len(parts))
		for _, p := range parts {
			inFoot[p.id] = true
		}
		for _, n := range cl.c.nodes {
			if inFoot[n.id] {
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
		return nil // empty (or scan-only, validated above) transaction
	case 1:
		return cl.commitLocal(parts[0].id, parts[0].keys, t)
	default:
		return cl.commitCross(parts, t)
	}
}

// localWrites stamps the writes of one single-System commit: each takes
// its revision from the store, the commit keeps the highest, and with a
// log attached each becomes a record of the System's stream.
type localWrites struct {
	n      *Node
	log    bool
	recs   []wal.Op
	maxRev uint64
}

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
	w.maxRev = max(w.maxRev, op.Rev)
	if w.log {
		w.recs = append(w.recs, op)
	}
	return b.Delete, nil
}

// commitOn is the one single-System commit: body runs as one engine
// transaction on System nodeID, writing through w, and once it committed
// the transaction counts as local, raises LastCommitRev and is logged to
// the System's stream. No intents are needed: the engine's own conflict
// detection makes the body atomic against every other transaction on that
// System, and the body's intent checks (w.free) keep it correct against
// in-flight 2PC. The caller keeps its own checks and counts its refusals.
func (cl *Client) commitOn(nodeID int, body func(tx rhtm.Tx, w *localWrites) error) error {
	w := localWrites{n: cl.c.nodes[nodeID], log: cl.c.wal != nil}
	err := cl.threads[nodeID].Atomic(func(tx rhtm.Tx) error {
		w.recs, w.maxRev = w.recs[:0], 0 // the body re-executes on engine aborts
		return body(tx, &w)
	})
	if err != nil {
		return err
	}
	cl.c.localTxns.Add(1)
	cl.lastRev = max(cl.lastRev, w.maxRev)
	return cl.logLocal(nodeID, w.recs)
}

// commitLocal validates and applies a single-System footprint through
// commitOn: scan ranges first, then each key's intents and recorded read,
// then the buffered writes.
func (cl *Client) commitLocal(nodeID int, keys []txnKey, t *Txn) error {
	err := cl.commitOn(nodeID, func(tx rhtm.Tx, w *localWrites) error {
		if len(t.scans) > 0 && !scansValid(tx, w.n, t) {
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
	})
	switch err {
	case ErrConflict:
		cl.c.localConflicts.Add(1)
	case errPhantom:
		cl.c.phantomConflicts.Add(1)
		err = ErrConflict
	}
	return err
}

// commitCross is the one two-phase-commit round: prepare → durable
// decision → finish → resolution mark. Every crash window and both fence
// arms of DESIGN.md §6/§9 live here and nowhere else. ErrConflict means a
// prepare conflict aborted the round and the caller may run it again.
func (cl *Client) commitCross(parts []participant, t *Txn) error {
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
		err := cl.prepare(p.id, txid, p.keys, t)
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
		decisionOps = crossDecisionOps(parts)
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
// coordinator decision log: one op per written key, Part naming the owning
// System, revision 0 (revisions are assigned at apply time). Read-only
// footprints yield nothing — there is nothing to recover forward.
func crossDecisionOps(parts []participant) []wal.Op {
	var ops []wal.Op
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
			if _, seen := t.reads[string(k)]; !seen {
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

// prepare runs the phase-1 transaction on one participant. The scan-range
// check runs first, before any of this transaction's own intents land.
func (cl *Client) prepare(nodeID int, txid uint64, keys []txnKey, t *Txn) error {
	n := cl.c.nodes[nodeID]
	return cl.threads[nodeID].Atomic(func(tx rhtm.Tx) error {
		if len(t.scans) > 0 && !scansValid(tx, n, t) {
			return errPhantom
		}
		for i := range keys {
			k := &keys[i]
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
			if err := n.st.PrepareIntent(tx, k.key, txid, kind, val, lease); err != nil {
				if err == store.ErrIntentHeld {
					return ErrConflict
				}
				return err
			}
		}
		return nil
	})
}

// finish runs the phase-2 transaction on one participant: apply on commit,
// discard on abort. Failures here are protocol bugs (the intents must
// exist and be ours), surfaced as hard errors. With a WAL attached, the
// applies are logged to the participant's stream under the cluster
// transaction id (recovery's applied-detection keys on it) and forced
// durable before the coordinator marks the transaction resolved.
func (cl *Client) finish(nodeID int, txid uint64, keys []txnKey, commit bool) error {
	n := cl.c.nodes[nodeID]
	var recs []wal.Op
	var maxRev uint64
	err := cl.threads[nodeID].Atomic(func(tx rhtm.Tx) error {
		recs = recs[:0] // the body re-executes on engine aborts
		maxRev = 0
		for i := range keys {
			key := keys[i].key
			if !commit {
				if err := n.st.DiscardIntent(tx, key, txid); err != nil {
					return err
				}
				continue
			}
			op, err := n.st.ApplyIntent(tx, key, txid)
			if err != nil {
				return err
			}
			maxRev = max(maxRev, op.Rev)
			if cl.c.wal == nil || op.Rev == 0 {
				continue // read intent, or a delete of an absent key
			}
			op.Key, op.Value = copyVal(op.Key), copyVal(op.Value)
			recs = append(recs, op)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if maxRev > cl.lastRev {
		cl.lastRev = maxRev
	}
	return cl.logApply(nodeID, txid, recs)
}
