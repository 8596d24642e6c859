package client

import (
	"time"

	"rhtm/cluster"
	"rhtm/kv"
	"rhtm/server/wire"
)

// Update implements kv.DB with the same optimistic buffered transaction a
// kv.ClusterDB closure runs (cluster.Txn under kv.BufferedTxn), reading
// through the wire: a first read of a key is one GetRev round trip, a
// closure scan one FlagWithRev scan, and each records the revisions it saw;
// writes buffer locally. Commit ships the recorded revisions as conditions
// and the buffered writes as ops in one Txn frame; the server validates
// every condition inside one transaction and applies the writes
// atomically. The frame also carries the ranges the closure scanned, and
// the server refuses the commit when a committed key inside one is missing
// from the conditions — a phantom, as ClusterDB's scansValid refuses it.
// Validation failure is kv.ErrConflict, and kv.Retry — the loop the
// in-process backends run — runs the closure again against fresh reads.
func (c *Client) Update(fn func(tx kv.Txn) error) error {
	return kv.Retry(func(attempt int) error {
		t := cluster.NewTxn(txnSource{c})
		start := time.Now()
		err := fn(kv.BufferedTxn(t))
		var rev kv.Revision
		if err == nil {
			rev, err = c.commit(t)
		}
		if trc := c.tracer(); trc != nil {
			trc.TxnAttempt(kv.AttemptSpan(c.engine, attempt, err, rev, time.Since(start), 0))
		}
		return err
	})
}

// txnSource is the committed state a closure's cluster.Txn reads through:
// the server, over the client's pooled connections.
type txnSource struct{ c *Client }

// Read implements cluster.Source with one GetRev round trip.
func (s txnSource) Read(key []byte) (cluster.Record, error) {
	m, err := s.c.do(wire.Msg{Kind: wire.KindGetRev, Key: key})
	if err != nil || m.Flags&wire.FlagAbsent != 0 {
		return cluster.Record{}, err
	}
	return cluster.Record{Value: m.Value, Rev: m.Rev, Found: true}, nil
}

// ScanSnapshot implements cluster.Source with one FlagWithRev scan: the
// server collects the entries with their revisions inside one transaction.
func (s txnSource) ScanSnapshot(start, end []byte, limit int) ([]cluster.Entry, error) {
	m := wire.Msg{Kind: wire.KindScan, Flags: wire.FlagWithRev, Key: start, End: end, Rev: uint64(limit)}
	tr := s.c.beginTrace(&m)
	r, err := s.c.pick().scan(m)
	if tr != nil {
		s.c.finishTrace(tr, r, err)
	}
	if err != nil {
		return nil, err
	}
	out := make([]cluster.Entry, len(r.Entries))
	for i, e := range r.Entries {
		out[i] = cluster.Entry(e)
	}
	return out, nil
}

// commit ships t's footprint as one Txn frame: every recorded observation
// is a condition (revision 0: the key must still be absent), every buffered
// write an op — except the delete of a key that was absent before the
// transaction, which changes nothing and leaves only its condition — and
// every scanned range a range (FlagRanges). A closure that read and wrote
// nothing, or whose only observation is one empty scan, commits locally
// for free; one that only read still commits over the wire, revalidating
// its reads and ranges so a torn multi-key read can never return success.
func (c *Client) commit(t *cluster.Txn) (kv.Revision, error) {
	var ranges []wire.Range
	t.Scans(func(start, end []byte) {
		ranges = append(ranges, wire.Range{Start: start, End: end})
	})
	var conds []wire.Cond
	var ops []kv.Op
	t.Footprint(func(key []byte, read *cluster.Record, w *cluster.Write) {
		if read != nil {
			conds = append(conds, wire.Cond{Key: key, Rev: read.Rev})
		}
		switch {
		case w == nil:
		case !w.Delete:
			ops = append(ops, kv.Op{Kind: kv.OpPut, Key: key, Value: w.Value, Lease: w.Lease})
		case read.Found: // Txn.Delete records every deleted key's observation
			ops = append(ops, kv.Op{Kind: kv.OpDelete, Key: key})
		}
	})
	if len(conds) == 0 && len(ops) == 0 && len(ranges) <= 1 {
		return 0, nil
	}
	m := wire.Msg{Kind: wire.KindTxn, Conds: conds, Ops: ops}
	if len(ranges) > 0 {
		m.Flags, m.Ranges = wire.FlagRanges, ranges
	}
	r, err := c.do(m)
	if err != nil {
		return 0, err
	}
	return r.Rev, nil
}
