package client

import (
	"sort"
	"time"

	"rhtm/kv"
	"rhtm/server/wire"
)

// Update implements kv.DB with an optimistic closure transaction at the
// network edge. The closure runs locally: first reads fetch GetRev over
// the wire and record (key, revision) as commit conditions, repeat reads
// hit the cache, writes buffer. Commit ships conditions plus buffered
// writes as one Txn frame; the server validates every condition inside
// one transaction and applies the writes atomically. Validation failure
// is kv.ErrConflict, and kv.Retry — the loop the in-process backends run —
// runs the closure again against fresh reads, with the read set explicit
// on the wire. Like the cluster backend, scans validate the entries they
// yielded, not the range (phantoms are unprotected).
func (c *Client) Update(fn func(tx kv.Txn) error) error {
	return kv.Retry(func(attempt int) error {
		t := &clientTxn{c: c}
		start := time.Now()
		err := fn(t)
		var rev kv.Revision
		if err == nil {
			rev, err = t.commit()
		}
		if trc := c.tracer(); trc != nil {
			trc.TxnAttempt(kv.AttemptSpan(c.engine, attempt, err, rev, time.Since(start), 0))
		}
		return err
	})
}

// readObs is one committed observation: the value (nil when absent), the
// revision the commit condition validates (0 = must still be absent), and
// whether the key existed.
type readObs struct {
	val   []byte
	rev   kv.Revision
	found bool
}

type writeOp struct {
	del   bool
	val   []byte
	lease kv.LeaseID
}

// clientTxn implements kv.Txn against the read cache and write buffer.
type clientTxn struct {
	c      *Client
	reads  map[string]readObs
	writes map[string]*writeOp
	order  []string
}

// read returns the committed observation for key, fetching it over the
// wire on first use. The first observation wins: it is the revision the
// commit will validate.
func (t *clientTxn) read(key []byte) (readObs, error) {
	if r, ok := t.reads[string(key)]; ok {
		return r, nil
	}
	m, err := t.c.do(wire.Msg{Kind: wire.KindGetRev, Key: key})
	if err != nil {
		return readObs{}, err
	}
	r := readObs{val: m.Value, rev: m.Rev, found: m.Flags&wire.FlagAbsent == 0}
	if !r.found {
		r.val, r.rev = nil, 0
	}
	if t.reads == nil {
		t.reads = make(map[string]readObs)
	}
	t.reads[string(key)] = r
	return r, nil
}

func (t *clientTxn) buffer(key []byte, w *writeOp) {
	if t.writes == nil {
		t.writes = make(map[string]*writeOp)
	}
	if _, ok := t.writes[string(key)]; !ok {
		t.order = append(t.order, string(key))
	}
	t.writes[string(key)] = w
}

// Get implements kv.Txn: the transaction's own writes win, then the read
// cache, then one wire fetch. Every call returns a fresh copy — closures
// may mutate the returned slice in place.
func (t *clientTxn) Get(key []byte) ([]byte, error) {
	if kv.IsReservedKey(key) {
		return nil, kv.ErrReservedKey
	}
	if w, ok := t.writes[string(key)]; ok {
		if w.del {
			return nil, kv.ErrNotFound
		}
		return append([]byte(nil), w.val...), nil
	}
	r, err := t.read(key)
	if err != nil {
		return nil, err
	}
	if !r.found {
		return nil, kv.ErrNotFound
	}
	return append([]byte(nil), r.val...), nil
}

// Revision implements kv.Txn, reporting the committed observation (like
// the cluster backend's buffered transactions; see the kv.Txn contract —
// read the revision before writing the key).
func (t *clientTxn) Revision(key []byte) (kv.Revision, error) {
	if kv.IsReservedKey(key) {
		return 0, kv.ErrReservedKey
	}
	r, err := t.read(key)
	if err != nil {
		return 0, err
	}
	return r.rev, nil
}

// Put implements kv.Txn.
func (t *clientTxn) Put(key, value []byte, opts ...kv.PutOption) error {
	if kv.IsReservedKey(key) {
		return kv.ErrReservedKey
	}
	t.buffer(key, &writeOp{val: append([]byte(nil), value...), lease: kv.LeaseOf(opts...)})
	return nil
}

// Delete implements kv.Txn. Existence is judged against the transaction's
// own buffer first, then the committed observation — which is fetched if
// missing, so every buffered delete carries a validating condition.
func (t *clientTxn) Delete(key []byte) error {
	if kv.IsReservedKey(key) {
		return kv.ErrReservedKey
	}
	if w, ok := t.writes[string(key)]; ok {
		if w.del {
			return kv.ErrNotFound
		}
		if _, err := t.read(key); err != nil {
			return err
		}
		t.buffer(key, &writeOp{del: true})
		return nil
	}
	r, err := t.read(key)
	if err != nil {
		return err
	}
	if !r.found {
		return kv.ErrNotFound
	}
	t.buffer(key, &writeOp{del: true})
	return nil
}

// Scan implements kv.Txn: one FlagWithRev scan collects committed entries
// with their revisions inside a server-side transaction; each yielded
// entry joins the read set, the local write buffer is overlaid, and the
// merged view is truncated to limit. The committed fetch over-fetches by
// the buffer size so transaction-local deletes cannot under-fill.
func (t *clientTxn) Scan(start, end []byte, limit int) kv.Iterator {
	fetch := limit
	if fetch > 0 {
		fetch += len(t.writes)
	}
	sm := wire.Msg{
		Kind: wire.KindScan, Flags: wire.FlagWithRev,
		Key: start, End: end, Rev: uint64(fetch),
	}
	str := t.c.beginTrace(&sm)
	r, err := t.c.pick().scan(sm)
	if str != nil {
		t.c.finishTrace(str, r, err)
	}
	if err != nil {
		return &sliceIter{err: err}
	}
	entries := r.Entries
	merged := make(map[string][]byte, len(entries))
	for _, e := range entries {
		k := string(e.Key)
		if _, ok := t.reads[k]; !ok {
			if t.reads == nil {
				t.reads = make(map[string]readObs)
			}
			t.reads[k] = readObs{val: e.Value, rev: e.Rev, found: true}
		}
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
	sort.Strings(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	out := make([]wire.Entry, len(keys))
	for i, k := range keys {
		out[i] = wire.Entry{Key: []byte(k), Value: merged[k]}
	}
	return &sliceIter{entries: out}
}

func inRange(k string, start, end []byte) bool {
	if kv.IsReservedKey([]byte(k)) {
		return false
	}
	if len(start) > 0 && k < string(start) {
		return false
	}
	if end != nil && k >= string(end) {
		return false
	}
	return true
}

// commit ships the read set as conditions and the write buffer as ops. A
// transaction that read and wrote nothing commits locally for free; one
// that only read still commits over the wire, revalidating its reads so
// a torn multi-key read can never return success.
func (t *clientTxn) commit() (kv.Revision, error) {
	if len(t.reads) == 0 && len(t.writes) == 0 {
		return 0, nil
	}
	conds := make([]wire.Cond, 0, len(t.reads))
	for k, r := range t.reads {
		conds = append(conds, wire.Cond{Key: []byte(k), Rev: r.rev})
	}
	sort.Slice(conds, func(i, j int) bool { return string(conds[i].Key) < string(conds[j].Key) })
	var ops []kv.Op
	for _, k := range t.order {
		w := t.writes[k]
		if w.del {
			// Every buffered delete fetched its committed observation
			// (see Delete): when the key was absent before this
			// transaction, the delete of a transaction-local write nets
			// out to nothing — the rev-0 condition alone keeps the
			// serialization honest.
			if r := t.reads[k]; !r.found {
				continue
			}
			ops = append(ops, kv.Op{Kind: kv.OpDelete, Key: []byte(k)})
			continue
		}
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: []byte(k), Value: w.val, Lease: w.lease})
	}
	r, err := t.c.do(wire.Msg{Kind: wire.KindTxn, Conds: conds, Ops: ops})
	if err != nil {
		return 0, err
	}
	return r.Rev, nil
}

var _ kv.Txn = (*clientTxn)(nil)
