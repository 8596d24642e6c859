package server

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"rhtm"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/server/wire"
	"rhtm/store"
)

// gatedDB is the lane-rule tests' kv.Served double: one domain, every
// BatchTraced call parked until the gate opens, and each call's size and
// start time recorded. A batch that succeeds is all the batcher asks of it.
type gatedDB struct {
	kv.Served
	gate chan struct{}
	open func()

	mu    sync.Mutex
	calls []batchCall
}

type batchCall struct {
	ops int
	at  time.Time
}

func (c batchCall) String() string { return strconv.Itoa(c.ops) }

func (d *gatedDB) Domains() int      { return 1 }
func (d *gatedDB) Domain([]byte) int { return 0 }

func (d *gatedDB) BatchTraced(_ obs.TraceSink, ops []kv.Op) ([]kv.OpResult, error) {
	d.mu.Lock()
	d.calls = append(d.calls, batchCall{ops: len(ops), at: time.Now()})
	d.mu.Unlock()
	<-d.gate
	return make([]kv.OpResult, len(ops)), nil
}

// waitCalls polls until the double has seen n BatchTraced calls and returns
// them, failing if that takes longer than within.
func (d *gatedDB) waitCalls(t *testing.T, n int, within time.Duration) []batchCall {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		d.mu.Lock()
		calls := append([]batchCall(nil), d.calls...)
		d.mu.Unlock()
		if len(calls) >= n {
			return calls
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d BatchTraced calls within %v, want %d; their sizes: %v", len(calls), within, n, calls)
		}
		time.Sleep(time.Millisecond)
	}
}

// newGatedBatcher builds a batcher with the given window and the default cap
// over a fresh gatedDB, and the registry its counters land in.
func newGatedBatcher(t *testing.T, window time.Duration) (*batcher, *gatedDB, *obs.Registry) {
	reg := obs.NewRegistry()
	met := newServerMetrics(reg)
	db := &gatedDB{gate: make(chan struct{})}
	db.open = sync.OnceFunc(func() { close(db.gate) })
	b := newBatcher(db, window, DefaultBatchMax, &met)
	t.Cleanup(func() {
		db.open()
		// A failed test may have left a lane inside a long window: do not
		// wait it out.
		if !t.Failed() {
			b.close()
		}
	})
	return b, db, reg
}

// newTestConn is a connection the batcher can answer: its responses queue
// up unread, with room for every op a test sends.
func newTestConn() *conn {
	return &conn{out: make(chan wire.Msg, 4*DefaultBatchMax), flush: make(chan struct{}, 1)}
}

// send parks n Puts from c in the batcher.
func send(b *batcher, c *conn, n int) {
	for i := 0; i < n; i++ {
		c.pending.Add(1)
		b.enqueue(pendingOp{c: c, id: uint64(i), start: time.Now(),
			op: kv.Op{Kind: kv.OpPut, Key: []byte("k"), Value: []byte("v")}})
	}
}

func windowed(reg *obs.Registry) uint64 {
	return reg.Snapshot().Counter("server.batch_windowed")
}

// runBacklog parks a full first batch at the gate, queues backlog ops
// behind it, opens the gate and checks that the lane runs the backlog as
// batches of the sizes want, each starting at once although the window is
// 10 s.
func runBacklog(t *testing.T, backlog int, want []int) {
	b, db, reg := newGatedBatcher(t, 10*time.Second)
	c := newTestConn()

	// A lone op finds the lane idle and opens the window; the rest of a
	// full batch fills it to the cap, which closes it.
	send(b, c, 1)
	deadline := time.Now().Add(2 * time.Second)
	for windowed(reg) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("a lone op on an idle lane never opened the window")
		}
		time.Sleep(time.Millisecond)
	}
	send(b, c, DefaultBatchMax-1)
	if first := db.waitCalls(t, 1, 2*time.Second)[0]; first.ops != DefaultBatchMax {
		t.Fatalf("first batch held %d ops, want the cap %d", first.ops, DefaultBatchMax)
	}

	// The lane is busy; the backlog queues behind it.
	send(b, c, backlog)
	free := time.Now()
	db.open()
	calls := db.waitCalls(t, 1+len(want), 2*time.Second)[1:]
	for i, call := range calls {
		if i >= len(want) || call.ops != want[i] {
			t.Fatalf("batches after the first held %v ops, want %v", calls, want)
		}
		if wait := call.at.Sub(free); wait > time.Second {
			t.Errorf("batch %d (%d ops) started %v after the lane was free", i+2, call.ops, wait)
		}
	}
	if n := windowed(reg); n != 1 {
		t.Errorf("%d batches held the window, want 1: only the first op found the lane idle", n)
	}
	c.pending.Wait()
	if got := len(c.out); got != DefaultBatchMax+backlog {
		t.Errorf("%d responses, want %d", got, DefaultBatchMax+backlog)
	}
}

// TestBatcherBacklogDoesNotWait: ops that queued while a batch ran form the
// next batch the moment the lane is free, however long the window.
func TestBatcherBacklogDoesNotWait(t *testing.T) {
	runBacklog(t, 5, []int{5})
}

// TestBatcherBacklogSplitsAtCap: a backlog longer than DefaultBatchMax runs
// as full batches back to back and then the rest, none of them waiting.
func TestBatcherBacklogSplitsAtCap(t *testing.T) {
	runBacklog(t, 2*DefaultBatchMax+5, []int{DefaultBatchMax, DefaultBatchMax, 5})
}

// TestBatcherIdleLaneHoldsWindow: a lone op on an idle lane holds the window
// open, so another connection's op arriving 20 ms into a 200 ms window
// rides in the same batch.
func TestBatcherIdleLaneHoldsWindow(t *testing.T) {
	b, db, _ := newGatedBatcher(t, 200*time.Millisecond)
	db.open()
	c1, c2 := newTestConn(), newTestConn()
	send(b, c1, 1)
	time.Sleep(20 * time.Millisecond)
	send(b, c2, 1)
	c1.pending.Wait()
	c2.pending.Wait()
	if calls := db.waitCalls(t, 1, 0); len(calls) != 1 || calls[0].ops != 2 {
		t.Fatalf("BatchTraced calls of %v ops, want one of 2", calls)
	}
}

// TestBatcherFallbackTracesEachOp: when a merged batch hard-fails, each op
// re-runs as a one-op batch carrying its own trace, so a traced Put that
// commits in the fallback records its commit revision like any other.
func TestBatcherFallbackTracesEachOp(t *testing.T) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	db := kv.NewLocal(rhtm.NewTL2(s), store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13}))
	met := newServerMetrics(obs.NewRegistry())
	// A cap of two closes the lone op's window once the second is queued,
	// so both ride in one merged batch.
	b := newBatcher(db, 10*time.Second, 2, &met)
	defer b.close()
	fl := obs.NewFlight()
	c := newTestConn()
	poison, innocent := fl.NewTrace(1, "put"), fl.NewTrace(2, "put")
	huge := make([]byte, 1<<19) // beyond the largest arena size class
	for i, p := range []struct {
		tr    *obs.Trace
		value []byte
	}{{poison, huge}, {innocent, []byte("v")}} {
		c.pending.Add(1)
		b.enqueue(pendingOp{c: c, id: uint64(i), start: time.Now(), tr: p.tr,
			op: kv.Op{Kind: kv.OpPut, Key: []byte("fallback-" + strconv.Itoa(i)), Value: p.value}})
	}
	c.pending.Wait()

	if ps := poison.Snapshot(); ps.Err == "" {
		t.Errorf("oversized Put's trace finished without an error: %+v", ps)
	}
	is := innocent.Snapshot()
	if is.Err != "" {
		t.Fatalf("innocent Put failed alongside the poisoned op: %s", is.Err)
	}
	if is.CommitRev == 0 {
		t.Fatalf("innocent Put re-run in the fallback traced no commit revision: %+v", is)
	}
}
