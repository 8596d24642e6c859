package server

import (
	"sync"
	"time"

	"rhtm/kv"
	"rhtm/obs"
	"rhtm/server/wire"
)

// pendingOp is one single-key request parked in the batcher: enough to
// execute it and route its response back to the owning connection.
type pendingOp struct {
	c     *conn
	id    uint64
	op    kv.Op
	start time.Time
	// tr is the op's server-side trace when the request frame carried
	// FlagTraced; the batcher stamps its batch_wait stage and broadcasts
	// the merged transaction's stages to it.
	tr *obs.Trace
}

// batcher merges independent single-key requests from every connection
// into shared batch transactions (BatchTraced) — the network-side analogue
// of WAL group commit — one lane per commit domain of the DB
// (kv.DB.Domain). A lane is a queue and one goroutine running the merge
// loop: it takes the first queued op and everything queued behind it (up to
// the size cap), executes, responds, repeats. While a batch executes,
// arrivals queue up and form the next one, so fill scales with offered load
// and a busy lane never waits. Only a first op that finds the lane empty
// holds the batch open for stragglers behind a small time/size window, so
// an idle server adds at most one window of latency.
//
// Merging by owner keeps the common request on the cheap path: every merged
// batch lies within one domain, so on a cluster it commits as one engine
// transaction on the owning System instead of a two-phase commit across all
// of them — an atomicity between strangers' requests that no client asked
// for — and the Systems' batches execute and sync side by side. A one-domain
// DB is the one-lane case of the same code.
//
// Ordering: a key has one domain, hence one FIFO lane, so batched ops on the
// same key execute in arrival order — a pipelined Put→Get of a key observes
// the Put. Ops on keys of different domains are not ordered against each
// other, not even from one connection: they are concurrent operations under
// the wire contract (responses are matched by id and may complete out of
// order), exactly as a batched op and a handler-path request always were. A
// client that needs an order across keys waits for the first response or
// sends one Batch/Txn, whose atomicity the DB's batch still provides.
type batcher struct {
	db     kv.Served
	window time.Duration
	max    int
	met    *serverMetrics
	lanes  []lane
	wg     sync.WaitGroup // the lanes' merge loops
}

// lane is one domain's queue plus the merge loop's scratch, reused from
// batch to batch.
type lane struct {
	// ch is deep enough that connection readers park ops here without
	// waiting on the loop for as long as a batch takes to execute.
	ch    chan pendingOp
	batch []pendingOp
	ops   []kv.Op
}

func newBatcher(db kv.Served, window time.Duration, max int, met *serverMetrics) *batcher {
	b := &batcher{
		db:     db,
		window: window,
		max:    max,
		met:    met,
		lanes:  make([]lane, db.Domains()),
	}
	b.wg.Add(len(b.lanes))
	for i := range b.lanes {
		b.lanes[i].ch = make(chan pendingOp, 4096)
		go b.loop(&b.lanes[i])
	}
	return b
}

// enqueue parks one op on its key's lane. The caller already holds a slot
// in its connection's pending WaitGroup; respond releases it.
func (b *batcher) enqueue(p pendingOp) {
	b.lanes[b.db.Domain(p.op.Key)].ch <- p
}

// close stops every lane after its queue drains. Callers must guarantee no
// further enqueues — the server closes connections first.
func (b *batcher) close() {
	for i := range b.lanes {
		close(b.lanes[i].ch)
	}
	b.wg.Wait()
}

func (b *batcher) loop(l *lane) {
	defer b.wg.Done()
	var timer *time.Timer
	for {
		first, ok := <-l.ch
		if !ok {
			return
		}
		l.batch = append(l.batch[:0], first)
		// What queued while the previous batch ran is this batch: take it
		// without waiting.
	drain:
		for len(l.batch) < b.max {
			select {
			case p, ok := <-l.ch:
				if !ok {
					break drain
				}
				l.batch = append(l.batch, p)
			default:
				break drain
			}
		}
		// Only a lone op on an idle lane holds the window open for stragglers.
		if len(l.batch) == 1 {
			b.met.batchWindowed.Inc()
			if timer == nil {
				timer = time.NewTimer(b.window)
			} else {
				timer.Reset(b.window)
			}
		fill:
			for len(l.batch) < b.max {
				select {
				case p, ok := <-l.ch:
					if !ok {
						break fill
					}
					l.batch = append(l.batch, p)
				case <-timer.C:
					break fill
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		b.exec(l)
		// The scratch outlives the batch: drop its references so no
		// connection, frame or value stays reachable from an idle lane.
		clear(l.batch)
		clear(l.ops)
	}
}

// exec runs the lane's merged batch and routes per-op responses. A hard
// failure of the merged transaction must not fail unrelated ops riding in
// it — one op's oversized value is not its neighbors' problem — so the
// whole batch degrades to individual execution: each op runs as a one-op
// batch carrying its own trace.
func (b *batcher) exec(l *lane) {
	batch := l.batch
	b.met.batchFill.Observe(uint64(len(batch)))
	l.ops = l.ops[:0]
	var traced obs.MultiSink
	for _, p := range batch {
		l.ops = append(l.ops, p.op)
		if p.tr != nil {
			// From enqueue until the merged transaction starts, the op sat
			// in the batcher's window.
			p.tr.StageSince(obs.StageBatchWait, p.start)
			traced = append(traced, p.tr)
		}
	}
	// Every traced op in the merged batch shares the one underlying
	// transaction, so each receives its engine/wal_sync/2PC stages. An
	// untraced batch passes a nil sink, not an empty MultiSink.
	var sink obs.TraceSink
	if len(traced) > 0 {
		sink = traced
	}
	results, err := b.db.BatchTraced(sink, l.ops)
	if err != nil || len(results) != len(batch) {
		for i, p := range batch {
			res, err := b.db.BatchTraced(sinkOf(p.tr), l.ops[i:i+1:i+1])
			if err != nil {
				b.respond(p, nil, err)
			} else {
				b.respond(p, res[0].Value, res[0].Err)
			}
		}
		return
	}
	for i, p := range batch {
		b.respond(p, results[i].Value, results[i].Err)
	}
}

// respond routes one op's response through sendNoWait: a lane's merge
// loop serves every connection, so it must never block on one
// connection's stalled reader (out.go holds the invariant; the write
// timeout bounds the resulting overflow).
func (b *batcher) respond(p pendingOp, v []byte, err error) {
	var m wire.Msg
	switch {
	case err != nil:
		m = errMsg(p.id, err)
	case p.op.Kind == kv.OpGet:
		m = wire.Msg{ID: p.id, Kind: wire.KindValue, Value: v}
	default:
		m = wire.Msg{ID: p.id, Kind: wire.KindOK}
	}
	if p.tr != nil {
		m.Flags |= wire.FlagTraced
		m.Trace = uint64(p.tr.Elapsed())
		p.tr.Finish(err)
	}
	p.c.sendNoWait(m)
	b.met.requestNs.Observe(uint64(time.Since(p.start)))
	p.c.pending.Done()
}
