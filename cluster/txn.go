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

// Get returns key's committed value with a local transaction on the owning
// System. A pending *write* intent makes the value undecided (its
// cross-System writer may commit or abort), so the read returns ErrConflict
// rather than a value that may be mid-replacement; shared read intents pin
// values without changing them and never block a read.
func (cl *Client) Get(key []byte) ([]byte, bool, error) {
	rec, err := cl.readCommitted(key)
	if err == nil {
		cl.c.localTxns.Add(1)
	}
	return rec.val, rec.ok, err
}

// readCommitted is Get without the local-transaction counter bump: Txn
// read-throughs use it so the harness's local-vs-cross traffic split counts
// client-level operations, not the reads a cross-System transaction issues
// while building its snapshot. The returned record carries the value, its
// revision, and its lease attachment.
func (cl *Client) readCommitted(key []byte) (readRec, error) {
	n := cl.c.nodes[cl.c.router.SystemFor(key)]
	var rec readRec
	err := cl.threads[n.id].Atomic(func(tx rhtm.Tx) error {
		if _, held := n.st.WriteIntentOn(tx, key); held {
			return ErrConflict
		}
		rec.val, rec.rev, rec.lease, rec.ok = n.st.Read(tx, key)
		rec.leaseKnown = true
		return nil
	})
	cl.countIntentWait(err)
	return rec, err
}

// countIntentWait counts a single-System operation turned away by a pending
// intent. Counters of completed operations are the caller's business:
// client-level operations bump localTxns, Txn read-throughs do not.
func (cl *Client) countIntentWait(err error) {
	if err == ErrConflict {
		cl.c.intentWaits.Add(1)
	}
}

// Put stores key→value with a local transaction on the owning System. Any
// pending intent on key makes it ErrConflict (writers wait for pinned
// readers too).
func (cl *Client) Put(key, value []byte) error {
	return cl.PutLease(key, value, 0)
}

// PutLease is Put with a lease attachment (0 detaches).
func (cl *Client) PutLease(key, value []byte, lease uint64) error {
	n := cl.c.nodes[cl.c.router.SystemFor(key)]
	var rev uint64
	err := cl.threads[n.id].Atomic(func(tx rhtm.Tx) error {
		if n.st.AnyIntentOn(tx, key) {
			return ErrConflict
		}
		var err error
		rev, err = n.st.PutStamped(tx, key, value, lease)
		return err
	})
	cl.countIntentWait(err)
	if err == nil {
		cl.c.localTxns.Add(1)
		if cl.c.wal != nil {
			return cl.logLocal(n.id, []wal.Op{{
				Kind: wal.OpPut, Key: copyVal(key), Value: copyVal(value),
				Rev: rev, Lease: lease,
			}})
		}
	}
	return err
}

// Delete removes key with a local transaction on the owning System; any
// pending intent on key makes it ErrConflict.
func (cl *Client) Delete(key []byte) (bool, error) {
	n := cl.c.nodes[cl.c.router.SystemFor(key)]
	var present bool
	var rev uint64
	err := cl.threads[n.id].Atomic(func(tx rhtm.Tx) error {
		if n.st.AnyIntentOn(tx, key) {
			return ErrConflict
		}
		rev, present = n.st.DeleteStamped(tx, key)
		return nil
	})
	cl.countIntentWait(err)
	if err == nil {
		cl.c.localTxns.Add(1)
		if present && cl.c.wal != nil {
			if werr := cl.logLocal(n.id, []wal.Op{{Kind: wal.OpDelete, Key: copyVal(key), Rev: rev}}); werr != nil {
				return present, werr
			}
		}
	}
	return present, err
}

// --- multi-key transactions ---

// copyVal clones v, preserving non-nilness: multi-key results use nil to
// mean "absent", so a present empty value must stay a non-nil empty slice.
func copyVal(v []byte) []byte {
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// writeRec is one buffered write.
type writeRec struct {
	val   []byte
	lease uint64
	del   bool
}

// readRec is one recorded committed read. Commit validates the observation
// by revision: a key's revision changes on every write, so equal revisions
// imply the value (and lease) are untouched — strictly stronger than the
// value comparison it replaces, since it also catches ABA (a key changed
// and changed back still advanced its revision).
type readRec struct {
	val   []byte
	rev   uint64
	lease uint64
	ok    bool
	// leaseKnown marks records seeded by snapshot scans, which carry
	// revisions but not lease attachments.
	leaseKnown bool
}

// Txn is an optimistic buffered transaction: Get reads through to
// committed state and records the observed value, Put/Delete buffer.
// Commit (driven by Client.Txn) validates every recorded read and applies
// the buffer atomically — locally when one System owns the whole
// footprint, via two-phase commit when several do.
type Txn struct {
	cl     *Client
	reads  map[string]readRec
	writes map[string]writeRec
	scans  []scanRange
	// conflicted is sticky: once a read returned ErrConflict the attempt
	// can only end in ErrConflict, even if the closure ignored the error —
	// the key it wanted was undecided, so what the closure did next rests
	// on a read it never got.
	conflicted bool
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

// Get returns key's value as of this transaction: buffered writes win,
// then the first committed read is reused (one consistent observation per
// key per attempt).
func (t *Txn) Get(key []byte) ([]byte, bool, error) {
	k := string(key)
	if w, ok := t.writes[k]; ok {
		if w.del {
			return nil, false, nil
		}
		return copyVal(w.val), true, nil
	}
	rec, err := t.read(key)
	if err != nil {
		return nil, false, err
	}
	return copyVal(rec.val), rec.ok, nil
}

// read returns the transaction's recorded observation of key, reading
// through to committed state (and recording the observation for commit
// validation) on first touch.
func (t *Txn) read(key []byte) (readRec, error) {
	k := string(key)
	if r, ok := t.reads[k]; ok {
		return r, nil
	}
	rec, err := t.cl.readCommitted(key)
	if err != nil {
		return readRec{}, t.note(err)
	}
	t.reads[k] = rec
	return rec, nil
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
	return rec.rev, rec.ok, nil
}

// Lease returns key's attached lease id as of this transaction (0 = none).
// Observations seeded by a snapshot scan lack lease metadata; Lease
// re-reads the committed entry then — divergence from the scan's revision
// is caught by commit validation like any other conflict.
func (t *Txn) Lease(key []byte) (uint64, bool, error) {
	if w, ok := t.writes[string(key)]; ok {
		if w.del {
			return 0, false, nil
		}
		return w.lease, true, nil
	}
	rec, err := t.read(key)
	if err != nil {
		return 0, false, err
	}
	if rec.ok && !rec.leaseKnown {
		fresh, err := t.cl.readCommitted(key)
		if err != nil {
			return 0, false, t.note(err)
		}
		return fresh.lease, fresh.ok, nil
	}
	return rec.lease, rec.ok, nil
}

// Put buffers key→value (the slice is copied), detaching any lease.
func (t *Txn) Put(key, value []byte) {
	t.writes[string(key)] = writeRec{val: copyVal(value)}
}

// PutLease buffers key→value with a lease attachment.
func (t *Txn) PutLease(key, value []byte, lease uint64) {
	t.writes[string(key)] = writeRec{val: copyVal(value), lease: lease}
}

// Delete buffers key's removal.
func (t *Txn) Delete(key []byte) {
	t.writes[string(key)] = writeRec{del: true}
}

// inRange reports start <= k < end with nil bounds unbounded.
func inRange(k string, start, end []byte) bool {
	return (start == nil || k >= string(start)) && (end == nil || k < string(end))
}

// Scan returns an ordered snapshot of [start, end) as of this transaction:
// a validated committed snapshot (Client.ScanSnapshot) overlaid with the
// transaction's own buffered writes and earlier reads, at most limit
// entries (0 = unbounded). Every committed entry the scan yields is
// recorded as a read, so commit re-validates it — and the *range itself* is
// recorded too, so commit additionally refuses when a key outside the read
// set has entered it (phantom protection; see scansValid for the exact
// guarantee). A limited scan protects only the observed prefix, up to the
// successor of the last key the snapshot fetched.
func (t *Txn) Scan(start, end []byte, limit int) ([]Entry, error) {
	fetch := 0
	if limit > 0 {
		// Buffered deletes can evict entries from the prefix; over-fetch by
		// the write-set size so the overlay can backfill.
		fetch = limit + len(t.writes)
	}
	raw, err := t.cl.ScanSnapshot(start, end, fetch)
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
			if r.ok {
				merged[k] = r.val
			}
			continue
		}
		t.reads[k] = readRec{val: e.Value, rev: e.Rev, ok: true}
		merged[k] = e.Value
	}
	for k, w := range t.writes {
		if !inRange(k, start, end) {
			continue
		}
		if w.del {
			delete(merged, k)
		} else {
			merged[k] = w.val
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

// Txn runs fn once, optimistically, and commits its buffer. A non-nil error
// from fn aborts without committing and is returned as-is; a conflict —
// at commit, or on any read fn made, whether or not fn passed the error on
// — is ErrConflict, and the caller may run the whole body again (kv.Retry
// does, so fn must be safe to re-execute). Reads during fn are
// individually committed values but are only guaranteed mutually
// consistent once commit validation passes — the standard OCC contract.
func (cl *Client) Txn(fn func(tx *Txn) error) error {
	t := &Txn{cl: cl, reads: map[string]readRec{}, writes: map[string]writeRec{}}
	if err := fn(t); err != nil {
		return err
	}
	return cl.commit(t)
}

// txnKey is one key of a transaction's footprint with its recorded read
// and/or buffered write.
type txnKey struct {
	key   []byte
	read  *readRec
	write *writeRec
}

// footprint groups the transaction's keys by owning System, each group
// sorted by key — with ascending System ids this is the deterministic
// global acquisition order.
func (cl *Client) footprint(t *Txn) (map[int][]txnKey, []int) {
	merged := map[string]txnKey{}
	for k, r := range t.reads {
		rr := r
		merged[k] = txnKey{key: []byte(k), read: &rr}
	}
	for k, w := range t.writes {
		ww := w
		tk := merged[k]
		tk.key = []byte(k)
		tk.write = &ww
		merged[k] = tk
	}
	byNode := map[int][]txnKey{}
	for _, tk := range merged {
		n := cl.c.router.SystemFor(tk.key)
		byNode[n] = append(byNode[n], tk)
	}
	participants := make([]int, 0, len(byNode))
	for n := range byNode {
		slices.SortFunc(byNode[n], func(a, b txnKey) int { return bytes.Compare(a.key, b.key) })
		participants = append(participants, n)
	}
	slices.Sort(participants)
	return byNode, participants
}

// commit validates and applies t's buffer, or returns ErrConflict.
func (cl *Client) commit(t *Txn) error {
	cl.lastRev = 0
	if t.conflicted {
		return ErrConflict // counted where the read met the intent
	}
	// A lone committed read is its own snapshot: readCommitted refused any
	// write intent, and there is no second observation for it to disagree
	// with, so re-validating it in another engine transaction proves nothing.
	// It counts as the local transaction it was; an empty one counts as none.
	if len(t.writes) == 0 && len(t.scans) == 0 && len(t.reads) <= 1 {
		cl.c.localTxns.Add(uint64(len(t.reads)))
		return nil
	}
	byNode, participants := cl.footprint(t)
	// Phantom protection outside the footprint: hash routing interleaves a
	// scanned range over every System, but the commit path only validates
	// participant Systems. Check the rest read-only first. On a
	// single-System cluster every range is re-checked inside the commit's
	// own engine transaction, making the protection airtight; with several
	// Systems the window between this check and the applies remains
	// (DESIGN.md §13).
	if len(t.scans) > 0 {
		inFoot := make(map[int]bool, len(participants))
		for _, id := range participants {
			inFoot[id] = true
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
	switch len(participants) {
	case 0:
		return nil // empty (or scan-only, validated above) transaction
	case 1:
		return cl.commitLocal(participants[0], byNode[participants[0]], t)
	default:
		return cl.commitCross(byNode, participants, t)
	}
}

// commitLocal validates and applies a single-System footprint as one engine
// transaction. No intents are needed: the engine's own conflict detection
// makes validate+apply atomic against every other transaction on that
// System, and the intent check keeps it correct against in-flight 2PC —
// written keys must wait for any pending intent (pinned readers included),
// read-only keys only for write intents.
func (cl *Client) commitLocal(nodeID int, keys []txnKey, t *Txn) error {
	n := cl.c.nodes[nodeID]
	var recs []wal.Op
	var maxRev uint64
	err := cl.threads[nodeID].Atomic(func(tx rhtm.Tx) error {
		recs = recs[:0] // the body re-executes on engine aborts
		maxRev = 0
		if len(t.scans) > 0 && !scansValid(tx, n, t) {
			return errPhantom
		}
		for i := range keys {
			k := &keys[i]
			if k.write != nil {
				if n.st.AnyIntentOn(tx, k.key) {
					return ErrConflict
				}
			} else if _, held := n.st.WriteIntentOn(tx, k.key); held {
				return ErrConflict
			}
			if k.read != nil && !validRead(tx, n, k) {
				return ErrConflict
			}
		}
		for i := range keys {
			k := &keys[i]
			if k.write == nil {
				continue
			}
			if k.write.del {
				if rev, ok := n.st.DeleteStamped(tx, k.key); ok {
					if rev > maxRev {
						maxRev = rev
					}
					if cl.c.wal != nil {
						recs = append(recs, wal.Op{Kind: wal.OpDelete, Key: k.key, Rev: rev})
					}
				}
			} else {
				rev, err := n.st.PutStamped(tx, k.key, k.write.val, k.write.lease)
				if err != nil {
					return err
				}
				if rev > maxRev {
					maxRev = rev
				}
				if cl.c.wal != nil {
					recs = append(recs, wal.Op{Kind: wal.OpPut, Key: k.key,
						Value: k.write.val, Rev: rev, Lease: k.write.lease})
				}
			}
		}
		return nil
	})
	switch err {
	case nil:
		cl.c.localTxns.Add(1)
		if maxRev > cl.lastRev {
			cl.lastRev = maxRev
		}
		return cl.logLocal(nodeID, recs)
	case ErrConflict:
		cl.c.localConflicts.Add(1)
	case errPhantom:
		cl.c.phantomConflicts.Add(1)
		err = ErrConflict
	}
	return err
}

// commitCross runs one two-phase-commit round over a buffered transaction's
// participant Systems.
func (cl *Client) commitCross(byNode map[int][]txnKey, participants []int, t *Txn) error {
	return cl.twoPhase(participants,
		func(nodeID int) [][]byte {
			keys := make([][]byte, len(byNode[nodeID]))
			for i := range byNode[nodeID] {
				keys[i] = byNode[nodeID][i].key
			}
			return keys
		},
		func(nodeID int, txid uint64) error { return cl.prepare(nodeID, txid, byNode[nodeID], t) },
		func() []wal.Op { return crossDecisionOps(byNode, participants) })
}

// twoPhase is the one two-phase-commit round: prepare → durable decision →
// finish → resolution mark. Every crash window and both fence arms of
// DESIGN.md §6/§9 live here and nowhere else; Txn commits and Batches differ
// only in what they hand it — keysOf lists a participant's intent keys,
// prepare runs its phase-1 engine transaction, decision serializes the write
// set for the coordinator log. ErrConflict means a prepare conflict aborted
// the round and the caller may run it again.
func (cl *Client) twoPhase(participants []int, keysOf func(nodeID int) [][]byte,
	prepare func(nodeID int, txid uint64) error, decision func() []wal.Op) error {
	c := cl.c
	c.crossTxns.Add(1)
	txid := c.nextTxID.Add(1)

	// Phase 1: prepare each participant in ascending id order. One engine
	// transaction per participant validates its reads and installs its
	// intents, so a refused prepare leaves that System untouched.
	var prepared []int
	var conflict bool
	var hard error
	var prepStart time.Time
	if c.prepareHist != nil || cl.sink != nil {
		prepStart = time.Now()
	}
	for _, nodeID := range participants {
		err := prepare(nodeID, txid)
		if err == nil {
			prepared = append(prepared, nodeID)
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

	// Decision: commit iff every participant prepared. The log append is
	// the commit point; phase 2 merely discharges it. With a WAL attached,
	// the decision (with its write set) is synced to the coordinator log
	// before any apply runs — the *durable* commit point — and the region
	// from decision to resolution mark holds the checkpoint drain lock.
	commit := !conflict && hard == nil
	var decisionOps []wal.Op
	if c.wal != nil && commit {
		decisionOps = decision()
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
				c.decide(txid, false, participants)
				for _, nodeID := range prepared {
					_ = cl.finish(nodeID, txid, keysOf(nodeID), false)
				}
				c.crossAborts.Add(1)
			}
			return err
		}
	}
	c.decide(txid, commit, participants)
	if !commit {
		for _, nodeID := range prepared {
			if err := cl.finish(nodeID, txid, keysOf(nodeID), false); err != nil && hard == nil {
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
	for _, nodeID := range participants {
		if err := cl.finish(nodeID, txid, keysOf(nodeID), true); err != nil {
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
func crossDecisionOps(byNode map[int][]txnKey, participants []int) []wal.Op {
	var ops []wal.Op
	for _, nodeID := range participants {
		for i := range byNode[nodeID] {
			k := &byNode[nodeID][i]
			if k.write == nil {
				continue
			}
			op := wal.Op{Part: nodeID, Key: k.key}
			if k.write.del {
				op.Kind = wal.OpDelete
			} else {
				op.Kind = wal.OpPut
				op.Value = k.write.val
				op.Lease = k.write.lease
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
	return ok == k.read.ok && (!ok || rev == k.read.rev)
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
			if k.read != nil && !validRead(tx, n, k) {
				return ErrConflict
			}
			kind, val, lease := store.IntentRead, []byte(nil), uint64(0)
			if k.write != nil {
				if k.write.del {
					kind = store.IntentDelete
				} else {
					kind, val, lease = store.IntentPut, k.write.val, k.write.lease
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
func (cl *Client) finish(nodeID int, txid uint64, keys [][]byte, commit bool) error {
	n := cl.c.nodes[nodeID]
	var recs []wal.Op
	var maxRev uint64
	err := cl.threads[nodeID].Atomic(func(tx rhtm.Tx) error {
		recs = recs[:0] // the body re-executes on engine aborts
		maxRev = 0
		for _, key := range keys {
			if !commit {
				if err := n.st.DiscardIntent(tx, key, txid); err != nil {
					return err
				}
				continue
			}
			ap, err := n.st.ApplyIntent(tx, key, txid)
			if err != nil {
				return err
			}
			if ap.Rev > maxRev {
				maxRev = ap.Rev
			}
			if cl.c.wal == nil || ap.Rev == 0 {
				continue // read intent, or a delete of an absent key
			}
			op := wal.Op{Key: copyVal(key), Rev: ap.Rev}
			if ap.Kind == store.IntentPut {
				op.Kind = wal.OpPut
				op.Value = copyVal(ap.Value)
				op.Lease = ap.Lease
			} else {
				op.Kind = wal.OpDelete
			}
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
