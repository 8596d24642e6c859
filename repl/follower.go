package repl

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"rhtm"
	"rhtm/cluster"
	"rhtm/kv"
	"rhtm/wal"
)

// errLayout reports a replica whose durable layout names other streams
// than the primary's: a single System for a cluster, a cluster for a single
// System, or a cluster of another size.
var errLayout = errors.New("repl: replica layout differs from the primary's")

// Follower is one replica: a DB built without a log, fed by per-stream
// apply pumps tailing the primary's devices. Until promotion it serves only
// the follower-read surface (ReadAt); Group.Promote turns it into a full
// primary kv.DB, reading whatever recovery needs off the drained devices —
// the follower keeps no recovery state of its own.
type Follower struct {
	g    *Group
	name string

	db durableDB

	// streams tail the group's devices, in layout order: one per data
	// stream, then on a cluster the coordinator decision log. That last
	// tailer is only a cursor — its decisions carry no System state — so
	// drain, the applied_lsn gauge and the lag cover every device.
	streams []*stream
	wg      sync.WaitGroup

	stopMu  sync.Mutex
	stopped bool
}

// stream is one device being tailed: the cursor the pump has applied
// through, published under mu for drain waiters and gauges.
type stream struct {
	name string
	dev  wal.Device
	tl   *wal.Tailer

	mu         sync.Mutex
	cond       *sync.Cond
	appliedOff int
	appliedLSN uint64
	appliedRev uint64
	err        error
	done       bool
}

func newStream(name string, dev wal.Device) *stream {
	s := &stream{name: name, dev: dev, tl: wal.NewTailer(dev, 0, 1)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *stream) lsn() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appliedLSN
}

func (s *stream) rev() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appliedRev
}

// advance publishes the cursor past one applied unit.
func (s *stream) advance(u wal.Unit, maxRev uint64) {
	s.mu.Lock()
	s.appliedOff = u.EndOff
	s.appliedLSN = u.EndLSN
	if maxRev > s.appliedRev {
		s.appliedRev = maxRev
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finish marks the pump done (on close) or failed (on a bad stream or an
// apply error) and wakes drain waiters.
func (s *stream) finish(err error) {
	s.mu.Lock()
	s.done = true
	if err != nil && s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// drained blocks until the pump has applied everything the device holds, or
// has failed. Convergence after a fence is guaranteed: no new frames land,
// so appliedOff catches the (now fixed) device size.
func (s *stream) drained() error {
	target := s.dev.Size()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil {
			return s.err
		}
		if s.appliedOff >= target {
			return nil
		}
		if s.done {
			return wal.ErrTailerClosed
		}
		s.cond.Wait()
	}
}

// AddLocalReplica grows the group with a replica for a single-System
// primary: a fresh engine and store (same shard geometry as the primary)
// that will tail the stream from offset zero. Returns the Follower serving
// follower reads. opts mirror kv.NewLocal's.
func (g *Group) AddLocalReplica(eng rhtm.Engine, st kv.Storer, opts ...kv.Option) (*Follower, error) {
	return g.addReplica(kv.NewLocal(eng, st, opts...))
}

// AddClusterReplica grows the group with a replica for a cluster primary:
// a fresh cluster of the same size whose Systems tail the per-System
// streams, with a cursor over the coordinator decision log.
func (g *Group) AddClusterReplica(rc *cluster.Cluster, opts ...kv.Option) (*Follower, error) {
	return g.addReplica(kv.NewCluster(rc, opts...))
}

// addReplica grows the group with a replica over db, a DB built without a
// log whose layout names the primary's streams: each stream's device is
// tailed from offset zero by its own pump. A DB of another layout is
// refused with nothing registered.
func (g *Group) addReplica(db durableDB) (*Follower, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	lay := db.Layout()
	sameName := func(a, b kv.Stream) bool { return a.Name == b.Name }
	if !slices.EqualFunc(lay, g.primary.Layout(), sameName) {
		return nil, errLayout
	}
	if g.killed {
		return nil, ErrKilled
	}
	f := &Follower{g: g, name: g.nextName(), db: db}
	for i, s := range lay {
		st := newStream(s.Name, g.devs[i])
		f.streams = append(f.streams, st)
		f.wg.Add(1)
		go f.pump(st, s)
	}
	g.register(f)
	return f, nil
}

func (g *Group) nextName() string {
	g.nextID++
	return fmt.Sprintf("replica-%d", g.nextID-1)
}

// Name returns the follower's membership name.
func (f *Follower) Name() string { return f.name }

// ReadAt implements kv.FollowerReader against the replica: the returned
// watermark is the partition clock the apply pumps have provably reached.
func (f *Follower) ReadAt(key []byte, floor kv.Revision) ([]byte, kv.Revision, kv.Revision, error) {
	return f.db.ReadAt(key, floor)
}

// DB exposes the replica's DB, ready to serve (server.New). Before
// promotion, anything beyond the FollowerReader surface (writes, leases,
// watches) is the caller's own risk: the apply pumps own the replica's
// mutation path.
func (f *Follower) DB() kv.Served { return f.db }

// WaitIdle blocks until the follower has applied every frame its devices
// currently hold — the test hook for deterministic catch-up, and the drain
// step of promotion.
func (f *Follower) WaitIdle() error { return f.drain() }

func (f *Follower) drain() error {
	for _, s := range f.streams {
		if err := s.drained(); err != nil {
			return err
		}
	}
	return nil
}

func (f *Follower) appliedTotal() uint64 {
	var t uint64
	for _, s := range f.streams {
		t += s.lsn()
	}
	return t
}

func (f *Follower) kick() {
	for _, s := range f.streams {
		s.tl.Kick()
	}
}

// stop closes the tailers and joins the pumps. Idempotent.
func (f *Follower) stop() {
	f.stopMu.Lock()
	if f.stopped {
		f.stopMu.Unlock()
		return
	}
	f.stopped = true
	f.stopMu.Unlock()
	for _, s := range f.streams {
		s.tl.Close()
	}
	f.wg.Wait()
}

// pump tails one stream and publishes the cursor past each unit, until
// the tailer closes or a unit fails. A data stream's units are applied
// whole to its store through Replay, on a dedicated thread of its engine;
// the coordinator decision log (no store) is only a cursor.
func (f *Follower) pump(s *stream, to kv.Stream) {
	defer f.wg.Done()
	var a *applier
	if to.Store != nil {
		a = &applier{f: f, th: to.Engine.NewThread(), st: to.Store}
		a.body = a.replay
	}
	for {
		u, err := s.tl.Next()
		var maxRev uint64
		if err == nil && a != nil {
			maxRev, err = a.apply(u)
		}
		if err != nil {
			if err == wal.ErrTailerClosed {
				err = nil
			}
			s.finish(err)
			return
		}
		s.advance(u, maxRev)
	}
}

// applier is one data stream's apply side: the pump's engine thread, the
// replica store, and the Replay body bound once, to which apply hands a
// unit's ops through fields. Each pump owns its own, so the pumps of a
// cluster follower never share one.
type applier struct {
	f      *Follower
	th     rhtm.Thread
	st     kv.Storer
	body   func(tx rhtm.Tx) error // a.replay
	ops    []wal.Op               // the unit being applied
	maxRev uint64                 // its highest revision
}

// apply applies one unit of the stream.
func (a *applier) apply(u wal.Unit) (uint64, error) {
	switch u.Kind {
	case wal.UnitTxn:
		return a.applyOps(u.Txn.Ops)
	case wal.UnitCheckpoint:
		// Fully redundant for a caught-up follower (snapshots hold only
		// live keys at their current revisions, all <= the applied
		// watermark); Replay's revision guard skips them.
		// A follower attached mid-log uses them as its catch-up base.
		return a.applyOps(u.Checkpoint)
	}
	// Resolution marks carry no System state; epoch frames fence the
	// log, not the data. Both just move the cursor.
	return 0, nil
}

// applyOps applies one unit's ops in a single engine transaction — the
// unit's atomicity on the replica — through Replay, as crash recovery does.
// Replay skips an op at or below its record's revision, which makes
// re-delivery (checkpoint overlap, reattached cursors) idempotent.
func (a *applier) applyOps(ops []wal.Op) (uint64, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	fl := a.f.g.flight.Load()
	var applyStart time.Time
	if fl != nil {
		applyStart = time.Now()
	}
	a.ops = ops
	err := a.th.Atomic(a.body)
	a.ops = nil
	if err != nil {
		return 0, err
	}
	a.f.g.applyBatch.Observe(uint64(len(ops)))
	// Close the tracing loop: traces awaiting a commit revision at or
	// below this unit's watermark gain their replica_apply stage.
	if fl != nil {
		fl.ReplicaApplied(a.f.name, a.maxRev, len(ops), time.Since(applyStart))
	}
	return a.maxRev, nil
}

// replay is applyOps' body.
func (a *applier) replay(tx rhtm.Tx) (err error) {
	a.maxRev, err = a.st.Replay(tx, a.ops)
	return err
}
