package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rhtm/kv"
	"rhtm/obs"
	"rhtm/server/wire"
)

// scanChunk bounds entries per Scan response frame; large results stream
// as a sequence of Entries frames, the last marked FlagFinal.
const scanChunk = 128

// errTxnCondFailed aborts the server-side closure of a client transaction
// whose optimistic conditions no longer hold. It is deliberately NOT
// kv.ErrConflict: the kv retry loop would otherwise re-run the closure up
// to 10k times server-side, revalidating conditions that can never start
// holding again. The client owns the retry — it re-runs its closure
// against fresh reads — so this maps to CodeConflict on the wire and
// surfaces as exactly one kv.ErrConflict per commit attempt.
var errTxnCondFailed = errors.New("server: transaction condition failed")

// conn is one client connection: reader-side session state, the outbound
// response queue its writer drains, and the watch streams it owns.
type conn struct {
	srv        *Server
	cc         countingConn
	out        chan wire.Msg
	writerDone chan struct{}
	wbuf       []byte // writeLoop's frame encoder, kept within scratch.Bound

	// overflow holds responses that found the bounded queue full and must
	// not wait for it — the shared batcher's, whose lanes each serve
	// every connection. The writer drains it after each frame and on a
	// flush nudge; growth is bounded by the write timeout killing the
	// stalled connection that let the queue fill.
	ovMu     sync.Mutex
	overflow []wire.Msg
	flush    chan struct{}

	// hardWriteDeadline, when non-zero (unix nanos), caps the writer's
	// rolling per-frame deadline — teardown sets it so a slow-but-alive
	// reader cannot stretch the drain beyond its bound.
	hardWriteDeadline atomic.Int64

	// pending counts in-flight requests — handler goroutines and batched
	// ops — each of which enqueues its response before Done. Teardown
	// waits on it, so the queue never closes under a sender.
	pending sync.WaitGroup
	// sem bounds concurrently executing non-batched requests; the reader
	// blocks acquiring it, converting runaway pipelining into TCP
	// backpressure instead of unbounded goroutines.
	sem chan struct{}

	ctx    context.Context
	cancel context.CancelFunc

	watchMu sync.Mutex
	watches map[uint64]*watchReg
	watchWG sync.WaitGroup

	drainOnce sync.Once
}

func newConn(s *Server, nc net.Conn) *conn {
	ctx, cancel := context.WithCancel(context.Background())
	return &conn{
		srv:        s,
		cc:         countingConn{nc, s.met.bytesIn, s.met.bytesOut},
		out:        make(chan wire.Msg, 256),
		writerDone: make(chan struct{}),
		flush:      make(chan struct{}, 1),
		sem:        make(chan struct{}, defaultMaxInflight),
		ctx:        ctx,
		cancel:     cancel,
		watches:    make(map[uint64]*watchReg),
	}
}

// beginDrain stops the reader without cutting the socket: in-flight
// requests keep draining through teardown. Idempotent.
func (c *conn) beginDrain() {
	c.drainOnce.Do(func() { c.cc.SetReadDeadline(time.Now()) })
}

// readLoop decodes frames and dispatches until the client disconnects,
// sends garbage, or drain stops the reader — then tears the session down.
func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.cc, 32<<10)
	for {
		// The decoded message aliases its own frame buffer, which nothing
		// rewrites, so its keys and values may escape this loop (to the
		// batcher, handler goroutines and watch subscriptions) uncopied.
		m, err := wire.ReadMsg(br)
		if err != nil {
			break
		}
		c.srv.met.request(m.Kind)
		c.srv.reqTotal.Add(1)
		if !c.dispatch(m) {
			break
		}
	}
	c.teardown()
}

// teardown completes the session in drain order: cancel watch contexts
// (their streams end with WatchEnd), bound the whole drain — the hard
// deadline caps the writer's rolling per-frame deadlines, and the
// immediate SetWriteDeadline cuts short any write already blocked under a
// longer one — wait for every in-flight response to be enqueued, then
// close the queue so the writer flushes and exits.
func (c *conn) teardown() {
	c.cancel()
	hard := time.Now().Add(DefaultDrainTimeout)
	c.hardWriteDeadline.Store(hard.UnixNano())
	c.cc.SetWriteDeadline(hard)
	c.pending.Wait()
	c.watchWG.Wait()
	close(c.out)
	<-c.writerDone
	c.cc.Close()
	c.srv.removeConn(c)
}

// dispatch routes one request. Single-key Get/Put/Delete join the
// cross-connection batcher; watch control runs inline on the reader (so
// subscribe, cancel, and idle stay ordered with each other); everything
// else runs on a semaphore-bounded goroutine. Returns false on a protocol
// violation — a kind only servers may send — which kills the connection.
//
// A frame carrying FlagTraced opens a server-side trace under the
// client's trace id: its stages (queue_wait, batch_wait, engine,
// wal_sync, 2PC phases) are recorded into the flight recorder, and the
// terminal response frame echoes the server's handling time so the
// client can attribute the rest of the round trip to the network.
func (c *conn) dispatch(m wire.Msg) bool {
	var tr *obs.Trace
	if m.Flags&wire.FlagTraced != 0 {
		switch m.Kind {
		case wire.KindWatch, wire.KindWatchCancel, wire.KindWatchIdle:
			// Watch control is stream-oriented (many frames under one id):
			// there is no single handling interval to trace, so the flag is
			// ignored.
		default:
			tr = c.srv.flight.NewTrace(m.Trace, m.Kind.String())
		}
	}
	switch m.Kind {
	case wire.KindWatch:
		c.handleWatch(m)
	case wire.KindWatchCancel:
		c.handleWatchCancel(m)
	case wire.KindWatchIdle:
		c.handleWatchIdle(m)
	case wire.KindHello:
		c.sendT(tr, nil, wire.Msg{ID: m.ID, Kind: wire.KindValue, Value: []byte(c.srv.opts.engine)})
	case wire.KindClockNow:
		c.sendT(tr, nil, wire.Msg{ID: m.ID, Kind: wire.KindOK, Rev: c.srv.db.Clock().Now()})
	case wire.KindGet:
		c.enqueueOp(m, kv.Op{Kind: kv.OpGet, Key: m.Key}, tr)
	case wire.KindDelete:
		c.enqueueOp(m, kv.Op{Kind: kv.OpDelete, Key: m.Key}, tr)
	case wire.KindPut:
		c.enqueueOp(m, kv.Op{Kind: kv.OpPut, Key: m.Key, Value: m.Value, Lease: m.Lease}, tr)
	case wire.KindGetRev, wire.KindPutIf, wire.KindDeleteIf, wire.KindBatch,
		wire.KindTxn, wire.KindScan, wire.KindGrant, wire.KindKeepAlive,
		wire.KindRevoke, wire.KindExpire, wire.KindCheckpoint, wire.KindMetrics,
		wire.KindFollowerGet, wire.KindTraceDump, wire.KindHealth:
		c.spawn(m, tr)
	default:
		return false
	}
	return true
}

// enqueueOp routes one single-key request into the cross-connection
// batcher, pre-rejecting reserved keys so a bad op never poisons the
// merged transaction it would have joined.
func (c *conn) enqueueOp(m wire.Msg, op kv.Op, tr *obs.Trace) {
	if kv.IsReservedKey(op.Key) {
		c.sendT(tr, kv.ErrReservedKey, errMsg(m.ID, kv.ErrReservedKey))
		return
	}
	c.pending.Add(1)
	c.srv.batch.enqueue(pendingOp{c: c, id: m.ID, op: op, start: time.Now(), tr: tr})
}

func (c *conn) spawn(m wire.Msg, tr *obs.Trace) {
	c.pending.Add(1)
	c.sem <- struct{}{}
	go func() {
		defer func() {
			<-c.sem
			c.pending.Done()
		}()
		if tr != nil {
			// Everything between trace begin (frame decode) and here —
			// reader handoff plus the inflight-semaphore wait — is queueing.
			tr.StageSince(obs.StageQueueWait, tr.Begin())
		}
		start := time.Now()
		c.handle(m, tr)
		c.srv.met.requestNs.Observe(uint64(time.Since(start)))
	}()
}

// sinkOf converts an optional trace into an optional TraceSink without
// producing the classic non-nil interface around a nil pointer.
func sinkOf(tr *obs.Trace) obs.TraceSink {
	if tr == nil {
		return nil
	}
	return tr
}

// handle executes one non-batched request and enqueues its response(s).
func (c *conn) handle(m wire.Msg, tr *obs.Trace) {
	db := c.srv.db
	switch m.Kind {
	case wire.KindGetRev:
		v, rev, err := db.GetRev(m.Key)
		switch {
		case errors.Is(err, kv.ErrNotFound):
			c.sendT(tr, nil, wire.Msg{ID: m.ID, Kind: wire.KindValue, Flags: wire.FlagAbsent})
		case err != nil:
			c.sendT(tr, err, errMsg(m.ID, err))
		default:
			c.sendT(tr, nil, wire.Msg{ID: m.ID, Kind: wire.KindValue, Value: v, Rev: rev})
		}
	case wire.KindPutIf:
		var err error
		if m.Lease != 0 {
			err = db.PutIf(m.Key, m.Value, m.Rev, kv.WithLease(m.Lease))
		} else {
			err = db.PutIf(m.Key, m.Value, m.Rev)
		}
		c.replyT(tr, m.ID, 0, err)
	case wire.KindDeleteIf:
		c.replyT(tr, m.ID, 0, db.DeleteIf(m.Key, m.Rev))
	case wire.KindBatch:
		results, err := db.BatchTraced(sinkOf(tr), m.Ops)
		if err != nil {
			c.sendT(tr, err, errMsg(m.ID, err))
			return
		}
		rs := make([]wire.Result, len(results))
		for i, r := range results {
			rs[i] = wire.Result{Code: wire.CodeOf(r.Err), Value: r.Value}
		}
		c.sendT(tr, nil, wire.Msg{ID: m.ID, Kind: wire.KindResults, Results: rs})
	case wire.KindTxn:
		rev, err := c.srv.execTxn(m.Conds, m.Ranges, m.Ops, sinkOf(tr))
		c.replyT(tr, m.ID, rev, err)
	case wire.KindScan:
		c.handleScan(m, tr)
	case wire.KindGrant:
		id, err := db.Grant(m.Rev)
		c.replyT(tr, m.ID, id, err)
	case wire.KindKeepAlive:
		c.replyT(tr, m.ID, 0, db.KeepAlive(m.Lease))
	case wire.KindRevoke:
		c.replyT(tr, m.ID, 0, db.Revoke(m.Lease))
	case wire.KindExpire:
		n, err := db.ExpireLeases()
		c.replyT(tr, m.ID, uint64(n), err)
	case wire.KindCheckpoint:
		c.replyT(tr, m.ID, 0, db.Checkpoint())
	case wire.KindMetrics, wire.KindTraceDump, wire.KindHealth:
		c.handleAdmin(m, tr)
	case wire.KindFollowerGet:
		v, rev, wm, err := db.ReadAt(m.Key, m.Rev)
		switch {
		case errors.Is(err, kv.ErrNotFound):
			// Absence is a fact at the watermark, not a failure.
			c.sendT(tr, nil, wire.Msg{ID: m.ID, Kind: wire.KindFollowerValue, Flags: wire.FlagAbsent, Lease: wm})
		case err != nil:
			c.sendT(tr, err, errMsg(m.ID, err))
		default:
			c.sendT(tr, nil, wire.Msg{ID: m.ID, Kind: wire.KindFollowerValue, Value: v, Rev: rev, Lease: wm})
		}
	}
}

// sendT enqueues a request's terminal response frame. When the request
// was traced, the frame echoes FlagTraced with the server's handling time
// in the Trace field — the client subtracts it from its observed round
// trip to get the net stage — and the trace is finished into the flight
// recorder. Multi-frame responses (Scan chunks) stamp only the FlagFinal
// frame.
func (c *conn) sendT(tr *obs.Trace, err error, m wire.Msg) {
	if tr != nil {
		m.Flags |= wire.FlagTraced
		m.Trace = uint64(tr.Elapsed())
		tr.Finish(err)
	}
	c.send(m)
}

// replyT sends OK carrying rev, or the mapped error, finishing the trace
// (see sendT).
func (c *conn) replyT(tr *obs.Trace, id, rev uint64, err error) {
	if err != nil {
		c.sendT(tr, err, errMsg(id, err))
		return
	}
	c.sendT(tr, nil, wire.Msg{ID: id, Kind: wire.KindOK, Rev: rev})
}

func errMsg(id uint64, err error) wire.Msg {
	return wire.Msg{ID: id, Kind: wire.KindErr, Code: wire.CodeOf(err), Text: err.Error()}
}

// handleScan streams a range read as chunked Entries frames. The plain
// form snapshots via DB.Scan; FlagWithRev additionally reports each
// yielded key's revision, collected inside one closure transaction so the
// entries form the validated read set of a client-side transaction. Only
// the FlagFinal frame carries the trace stamp — it is the terminal frame.
func (c *conn) handleScan(m wire.Msg, tr *obs.Trace) {
	if m.Flags&wire.FlagWithRev != 0 {
		entries, err := c.srv.scanRev(m.Key, m.End, int(m.Rev), sinkOf(tr))
		if err != nil {
			c.sendT(tr, err, errMsg(m.ID, err))
			return
		}
		c.sendEntries(m.ID, entries, tr)
		return
	}
	var engStart time.Time
	if tr != nil {
		engStart = time.Now()
	}
	it := c.srv.db.Scan(m.Key, m.End, int(m.Rev))
	var chunk []wire.Entry
	for it.Next() {
		chunk = append(chunk, wire.Entry{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
		if len(chunk) == scanChunk {
			c.send(wire.Msg{ID: m.ID, Kind: wire.KindEntries, Entries: chunk})
			chunk = nil
		}
	}
	if tr != nil {
		// A snapshot scan never enters a closure transaction; its engine
		// stage is the iteration itself.
		tr.StageSince(obs.StageEngine, engStart)
	}
	if err := it.Err(); err != nil {
		c.sendT(tr, err, errMsg(m.ID, err))
		return
	}
	c.sendT(tr, nil, wire.Msg{ID: m.ID, Kind: wire.KindEntries, Flags: wire.FlagFinal, Entries: chunk})
}

func (c *conn) sendEntries(id uint64, entries []wire.Entry, tr *obs.Trace) {
	for len(entries) > scanChunk {
		c.send(wire.Msg{ID: id, Kind: wire.KindEntries, Entries: entries[:scanChunk]})
		entries = entries[scanChunk:]
	}
	c.sendT(tr, nil, wire.Msg{ID: id, Kind: wire.KindEntries, Flags: wire.FlagFinal, Entries: entries})
}

// scanRev runs one closure transaction that scans [start, end) and pairs
// every yielded entry with its revision — each Revision call records the
// key in the transaction's read set, mirroring the cluster transaction's
// scan semantics. The client records the range itself and ships it with
// its commit, where execTxn re-checks it for phantoms.
func (s *Server) scanRev(start, end []byte, limit int, sink obs.TraceSink) ([]wire.Entry, error) {
	var out []wire.Entry
	fn := func(tx kv.Txn) error {
		out = out[:0]
		it := tx.Scan(start, end, limit)
		for it.Next() {
			e := wire.Entry{
				Key:   append([]byte(nil), it.Key()...),
				Value: append([]byte(nil), it.Value()...),
			}
			rev, err := tx.Revision(e.Key)
			if err != nil {
				return err
			}
			e.Rev = rev
			out = append(out, e)
		}
		return it.Err()
	}
	if _, err := s.db.UpdateRevTraced(sink, fn); err != nil {
		return nil, err
	}
	return out, nil
}

// execTxn commits a client-side closure transaction: validate every
// condition (key at exactly the revision the client's reads observed,
// 0 = absent) and every scanned range (each committed key inside it is
// one of the conditions' keys; any other entered after the client's scan,
// a phantom), then apply the buffered ops, all inside one server-side
// closure. A failed condition surfaces as one kv.ErrConflict to the
// client, which re-runs its closure; see errTxnCondFailed.
func (s *Server) execTxn(conds []wire.Cond, ranges []wire.Range, ops []kv.Op, sink obs.TraceSink) (kv.Revision, error) {
	for _, cd := range conds {
		if kv.IsReservedKey(cd.Key) {
			return 0, kv.ErrReservedKey
		}
	}
	for _, op := range ops {
		if kv.IsReservedKey(op.Key) {
			return 0, kv.ErrReservedKey
		}
		if op.Kind != kv.OpPut && op.Kind != kv.OpDelete {
			return 0, fmt.Errorf("server: txn op kind %d", op.Kind)
		}
	}
	var observed map[string]bool
	if len(ranges) > 0 {
		observed = make(map[string]bool, len(conds))
		for _, cd := range conds {
			observed[string(cd.Key)] = true
		}
	}
	fn := func(tx kv.Txn) error {
		for _, cd := range conds {
			rev, err := tx.Revision(cd.Key)
			if err != nil {
				return err
			}
			if rev != cd.Rev {
				return errTxnCondFailed
			}
		}
		for _, r := range ranges {
			it := tx.Scan(r.Start, r.End, 0)
			for it.Next() {
				if !observed[string(it.Key())] {
					return errTxnCondFailed
				}
			}
			if err := it.Err(); err != nil {
				return err
			}
		}
		for _, op := range ops {
			switch op.Kind {
			case kv.OpPut:
				var err error
				if op.Lease != 0 {
					err = tx.Put(op.Key, op.Value, kv.WithLease(op.Lease))
				} else {
					err = tx.Put(op.Key, op.Value)
				}
				if err != nil {
					return err
				}
			case kv.OpDelete:
				if err := tx.Delete(op.Key); err != nil {
					return err
				}
			}
		}
		return nil
	}
	rev, err := s.db.UpdateRevTraced(sink, fn)
	if errors.Is(err, errTxnCondFailed) {
		return 0, fmt.Errorf("server: optimistic validation failed: %w", kv.ErrConflict)
	}
	return rev, err
}
