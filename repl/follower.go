package repl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rhtm"
	"rhtm/cluster"
	"rhtm/kv"
	"rhtm/store"
	"rhtm/wal"
)

var (
	errNotLocal     = errors.New("repl: AddLocalReplica on a cluster group")
	errNotCluster   = errors.New("repl: AddClusterReplica on a local group")
	errSizeMismatch = errors.New("repl: replica cluster size differs from primary")
)

// Follower is one replica: a DB built without a log, fed by per-stream
// apply pumps tailing the primary's devices. Until promotion it serves only
// the follower-read surface (ReadAt); Group.Promote turns it into a full
// primary kv.DB, reading whatever recovery needs off the drained devices —
// the follower keeps no recovery state of its own.
type Follower struct {
	g    *Group
	name string

	localDB *kv.Local     // nil on a cluster follower
	cdb     *kv.ClusterDB // nil on a local follower
	db      replicaDB

	// streams tail the group's devices, in the group's device order: one
	// per System, then on a cluster the coordinator decision log. That last
	// tailer is only a cursor — its decisions carry no System state — so
	// drain, the applied_lsn gauge and the lag cover every device.
	streams []*stream
	wms     *store.Watermarks
	wg      sync.WaitGroup

	stopMu  sync.Mutex
	stopped bool
}

// replicaDB is what both replica backends are: a DB with follower reads.
type replicaDB interface {
	kv.DB
	kv.FollowerReader
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
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.local == nil {
		return nil, errNotLocal
	}
	if g.killed {
		return nil, ErrKilled
	}
	f := &Follower{g: g, name: g.nextName()}
	f.localDB = kv.NewLocal(eng, st, opts...)
	f.db = f.localDB
	f.wms = store.NewWatermarks(len(st.EventLogs()))
	s := newStream("wal", g.devs[0])
	f.streams = []*stream{s}
	f.wg.Add(1)
	go f.pumpData(s, eng, st, -1)
	g.register(f)
	return f, nil
}

// AddClusterReplica grows the group with a replica for a cluster primary:
// a fresh cluster of the same size whose Systems tail the per-System
// streams, with a cursor over the coordinator decision log.
func (g *Group) AddClusterReplica(rc *cluster.Cluster, opts ...kv.Option) (*Follower, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cdb == nil {
		return nil, errNotCluster
	}
	if g.killed {
		return nil, ErrKilled
	}
	n := rc.NumSystems()
	if n != len(g.devs)-1 {
		return nil, errSizeMismatch
	}
	f := &Follower{g: g, name: g.nextName()}
	f.cdb = kv.NewCluster(rc, opts...)
	f.db = f.cdb
	f.wms = store.NewWatermarks(n)
	for i := 0; i < n; i++ {
		s := newStream(kv.WALDataName(i), g.devs[i])
		f.streams = append(f.streams, s)
		f.wg.Add(1)
		go f.pumpData(s, rc.Node(i).Engine(), rc.Node(i).Store(), i)
	}
	coord := newStream(kv.WALCoordName, g.devs[n])
	f.streams = append(f.streams, coord)
	f.wg.Add(1)
	go f.pump(coord, nil)
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

// DB exposes the replica's DB. Before promotion, anything beyond the
// FollowerReader surface (writes, leases, watches) is the caller's own
// risk: the apply pumps own the replica's mutation path.
func (f *Follower) DB() kv.DB { return f.db }

// AppliedRev returns partition part's applied watermark — advisory lag
// accounting (the follower-read watermark is always read transactionally).
func (f *Follower) AppliedRev(part int) uint64 { return f.wms.Get(part) }

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

// pump tails one stream, handing each unit to apply (nil: the stream is
// only a cursor) and publishing the cursor past it, until the tailer closes
// or a unit fails.
func (f *Follower) pump(s *stream, apply func(wal.Unit) (maxRev uint64, err error)) {
	defer f.wg.Done()
	for {
		u, err := s.tl.Next()
		var maxRev uint64
		if err == nil && apply != nil {
			maxRev, err = apply(u)
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

// pumpData tails one data stream and applies whole units to the replica
// System through Replay, on a dedicated engine thread.
// part >= 0 pins the watermark partition (cluster streams log Part 0 for a
// whole System); -1 uses each op's own partition (sharded local stores).
func (f *Follower) pumpData(s *stream, eng rhtm.Engine, st kv.Storer, part int) {
	th := eng.NewThread()
	f.pump(s, func(u wal.Unit) (uint64, error) {
		switch u.Kind {
		case wal.UnitTxn:
			return f.applyOps(th, st, u.Txn.Ops, part)
		case wal.UnitCheckpoint:
			// Fully redundant for a caught-up follower (snapshots hold only
			// live keys at their current revisions, all <= the applied
			// watermark); Replay's revision guard skips them.
			// A follower attached mid-log uses them as its catch-up base.
			return f.applyOps(th, st, u.Checkpoint, part)
		}
		// Resolution marks carry no System state; epoch frames fence the
		// log, not the data. Both just move the cursor.
		return 0, nil
	})
}

// applyOps applies one unit's ops in a single engine transaction — the
// unit's atomicity on the replica — through Replay, as crash recovery does.
// Replay skips an op at or below its record's revision, which makes
// re-delivery (checkpoint overlap, reattached cursors) idempotent.
func (f *Follower) applyOps(th rhtm.Thread, st kv.Storer, ops []wal.Op, part int) (uint64, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	fl := f.g.flight.Load()
	var applyStart time.Time
	if fl != nil {
		applyStart = time.Now()
	}
	var maxRev uint64
	err := th.Atomic(func(tx rhtm.Tx) (err error) {
		maxRev, err = st.Replay(tx, ops)
		return err
	})
	if err != nil {
		return 0, err
	}
	f.g.applyBatch.Observe(uint64(len(ops)))
	for i := range ops {
		p := part
		if p < 0 {
			p = ops[i].Part
		}
		f.wms.Set(p, ops[i].Rev)
	}
	// Close the tracing loop: traces awaiting a commit revision at or
	// below this unit's watermark gain their replica_apply stage.
	if fl != nil {
		fl.ReplicaApplied(f.name, maxRev, len(ops), time.Since(applyStart))
	}
	return maxRev, nil
}
