package harness

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rhtm/kv"
)

// The coordination scenarios: workloads that exercise the kv layer's
// revision/lease/watch surface rather than raw data throughput.
//
//   - "session": a session cache serving zipfian lookups. A miss is a
//     login — grant a lease, store the session under it — and a shared
//     virtual-time pump expires idle sessions, so the cache churns the way
//     a production session store does. Measures gets + lease machinery.
//   - "lock": a lease-based lock service. Workers race PutIf(create-only,
//     WithLease) to acquire locks, do a small transactional critical
//     section, then either release with a guarded delete or "crash" and
//     let lease expiry reclaim the lock. The run records every hold as a
//     virtual-time interval and fails if two lease-valid holds of one lock
//     ever overlap — the mutual-exclusion invariant, audited exactly, with
//     a watch stream counting the release/expiry deletes as they happen.
//
// Both run unchanged on either backend: on the cluster, lock acquisition
// is a cross-System transaction whenever the lock key and its lease record
// hash to different Systems, and expiry revokes ride 2PC.

// holdInterval is one recorded lock hold in virtual time.
type holdInterval struct {
	token    uint64
	start    uint64 // clock at acquire (recorded after the CAS commits)
	deadline uint64 // lease deadline: validity never extends past it
	end      uint64 // clock at release (recorded before the delete); 0 = crashed
}

// effectiveEnd is the instant the hold's mutual-exclusion guarantee ends:
// the release when it happened within the lease, the lease deadline
// otherwise — the classic fencing caveat, made checkable by virtual time.
func (h holdInterval) effectiveEnd() uint64 {
	if h.end != 0 && h.end < h.deadline {
		return h.end
	}
	return h.deadline
}

// holdLog records every lock hold of one run for the audit.
type holdLog struct {
	mu        sync.Mutex
	intervals map[int][]holdInterval
}

func (c *holdLog) record(lock int, iv holdInterval) {
	c.mu.Lock()
	if c.intervals == nil {
		c.intervals = map[int][]holdInterval{}
	}
	c.intervals[lock] = append(c.intervals[lock], iv)
	c.mu.Unlock()
}

// auditMutualExclusion checks that no two lease-valid holds of one lock
// overlap in virtual time. Starts are recorded after the acquiring CAS
// commits and ends before the releasing delete, so recorded intervals are
// sub-intervals of the true holds: the check can miss an overlap by a
// tick, but it can never report a false one.
//
// Ties need care: the clock only ticks every PumpEvery operations, so two
// *sequential* holds can record the same start. The only legal
// serialization of a tie is release-first — the later acquire needed the
// key absent, so every tied hold but the last must have ended at the tie
// tick, and the clock's monotonicity makes a tied hold with a later
// effective end provably the later acquire. Sorting ties by effective end
// therefore keeps the no-false-positive direction; without it the sort
// order is arbitrary and a crashed hold sorted before a same-tick released
// one reports a phantom overlap.
func (c *holdLog) auditMutualExclusion() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for lock, ivs := range c.intervals {
		sorted := append([]holdInterval(nil), ivs...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].start != sorted[j].start {
				return sorted[i].start < sorted[j].start
			}
			return sorted[i].effectiveEnd() < sorted[j].effectiveEnd()
		})
		for i := 1; i < len(sorted); i++ {
			prev, cur := sorted[i-1], sorted[i]
			if cur.start < prev.effectiveEnd() {
				return fmt.Errorf(
					"harness: mutual exclusion violated on lock %d: token %d held [%d,%d) overlaps token %d acquired at %d",
					lock, prev.token, prev.start, prev.effectiveEnd(), cur.token, cur.start)
			}
		}
	}
	return nil
}

// leasePump is the state the coordination mixes share: the virtual clock
// with its expiry pump, and the run's own watcher, counting release/expiry
// deletes live off the commit log the workers write through.
type leasePump struct {
	*kvRun
	clock *kv.ManualClock

	opSeq   atomic.Uint64 // global op counter driving the pump
	expired atomic.Uint64 // leases reclaimed by ExpireLeases
	watched atomic.Uint64 // delete events the watcher saw

	stopWatch context.CancelFunc
	watchDone chan struct{}
}

// openPump subscribes the watcher to the run's key prefix. The coordination
// mixes start empty: sessions are created by logins, locks by acquisitions.
func openPump(run *kvRun) (*leasePump, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := run.db.Watch(ctx, []byte("user"), 0)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("watch: %w", err)
	}
	p := &leasePump{kvRun: run, clock: run.be.clock, stopWatch: cancel, watchDone: make(chan struct{})}
	go func() {
		defer close(p.watchDone)
		for ev := range ch {
			if ev.Kind == kv.EventDelete {
				p.watched.Add(1)
			}
		}
	}()
	return p, nil
}

// hubDrainGrace is how long quiesce waits after the workers stop for the
// watch hub's fallback poll to flush the commit logs' tail.
const hubDrainGrace = 30 * time.Millisecond

// quiesce gives the hub a moment to flush the tail of the commit logs, then
// closes the stream, waits for the delete count to be final, and quiesces
// the hub's poller threads.
func (p *leasePump) quiesce() {
	time.Sleep(2 * hubDrainGrace)
	p.stopWatch()
	<-p.watchDone
	p.db.WaitWatchIdle()
}

func (p *leasePump) counters(out map[string]int64) {
	out["harness.expired"] = int64(p.expired.Load())
	out["harness.watched_deletes"] = int64(p.watched.Load())
}

// pump advances the shared virtual clock one tick and expires due leases
// every PumpEvery operations, whichever worker's op crosses the boundary.
func (p *leasePump) pump() error {
	if p.opSeq.Add(1)%uint64(p.spec.PumpEvery) != 0 {
		return nil
	}
	p.clock.Advance(1)
	n, err := p.db.ExpireLeases()
	if err != nil {
		return fmt.Errorf("expire leases: %w", err)
	}
	p.expired.Add(uint64(n))
	return nil
}

// sessionRun is the run state of the session-cache mix.
type sessionRun struct {
	*leasePump
	hits, misses atomic.Uint64 // cache outcomes
	logins       atomic.Uint64 // session (re)creations
}

func openSessions(run *kvRun) (mixRun, error) {
	p, err := openPump(run)
	return &sessionRun{leasePump: p}, err
}

func (s *sessionRun) counters(out map[string]int64) {
	out["harness.hits"] = int64(s.hits.Load())
	out["harness.misses"] = int64(s.misses.Load())
	out["harness.logins"] = int64(s.logins.Load())
	s.leasePump.counters(out)
}

func (s *sessionRun) audit() error { return nil }

// step is one session-cache operation: a zipfian lookup, with a miss
// handled as a login (lease grant + leased put). The pump's expiry churn
// keeps generating misses, so the login path stays hot for the whole run.
func (s *sessionRun) step(w *kvWorker) error {
	if err := s.pump(); err != nil {
		return err
	}
	key := ycsbKey(s.record(w))
	_, err := s.db.Get(key)
	switch {
	case err == nil:
		s.hits.Add(1)
		return nil
	case errors.Is(err, kv.ErrNotFound):
		s.misses.Add(1)
		lease, err := s.db.Grant(uint64(s.spec.TTL))
		if err != nil {
			return err
		}
		w.rng.Read(w.buf)
		err = s.db.Put(key, w.buf, kv.WithLease(lease))
		if errors.Is(err, kv.ErrLeaseNotFound) {
			// Another worker's pump expired the fresh lease before the
			// attach committed — the login simply failed; the next miss
			// retries it.
			return nil
		}
		if err != nil {
			return err
		}
		s.logins.Add(1)
		return nil
	default:
		return err
	}
}

// lockRun is the run state of the lock-service mix.
type lockRun struct {
	*leasePump
	holds  holdLog
	tokens atomic.Uint64 // fencing tokens handed out, one per attempt

	acquires  atomic.Uint64 // acquisitions won
	contended atomic.Uint64 // acquisitions lost to the CAS guard
	crashes   atomic.Uint64 // holds abandoned to lease expiry
	releases  atomic.Uint64 // holds released with the guarded delete
}

func openLocks(run *kvRun) (mixRun, error) {
	p, err := openPump(run)
	return &lockRun{leasePump: p}, err
}

func (l *lockRun) counters(out map[string]int64) {
	out["harness.acquires"] = int64(l.acquires.Load())
	out["harness.contended"] = int64(l.contended.Load())
	out["harness.releases"] = int64(l.releases.Load())
	out["harness.crashes"] = int64(l.crashes.Load())
	l.leasePump.counters(out)
}

func (l *lockRun) audit() error { return l.holds.auditMutualExclusion() }

// step is one lock-service operation: try to acquire a drawn lock with a
// create-only leased CAS under a fresh token; on success run a small
// transactional critical section, then release with a token-guarded delete
// — or crash for a fifth of the holds, leaving reclamation to lease expiry.
func (l *lockRun) step(w *kvWorker) error {
	if err := l.pump(); err != nil {
		return err
	}
	lockID := w.rng.Intn(l.spec.Records)
	lockKey := ycsbKey(lockID)
	token := l.tokens.Add(1)
	var tok [8]byte
	binary.LittleEndian.PutUint64(tok[:], token)

	// The recorded deadline is anchored before Grant reads the clock, so it
	// can only under-state the lease's true deadline — the audit direction
	// that avoids false violations.
	deadline := l.clock.Now() + uint64(l.spec.TTL)
	lease, err := l.db.Grant(uint64(l.spec.TTL))
	if err != nil {
		return err
	}
	err = l.db.PutIf(lockKey, tok[:], 0, kv.WithLease(lease))
	switch {
	case errors.Is(err, kv.ErrRevisionMismatch):
		l.contended.Add(1)
		// The lease was never used: drop it so records don't accumulate.
		if err := l.db.Revoke(lease); err != nil && !errors.Is(err, kv.ErrLeaseNotFound) {
			return err
		}
		return nil
	case errors.Is(err, kv.ErrLeaseNotFound):
		// The pump expired the fresh lease before the acquire committed:
		// the attempt simply failed.
		l.contended.Add(1)
		return nil
	case err != nil:
		return err
	}
	start := l.clock.Now()
	l.acquires.Add(1)

	// Critical section: bump this lock's work counter transactionally.
	csKey := []byte(fmt.Sprintf("cs-%08d", lockID))
	err = l.db.Update(func(tx kv.Txn) error {
		var v uint64
		cur, err := tx.Get(csKey)
		if err == nil {
			v = binary.LittleEndian.Uint64(cur)
		} else if !errors.Is(err, kv.ErrNotFound) {
			return err
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v+1)
		return tx.Put(csKey, b[:])
	})
	if err != nil {
		return err
	}

	if w.rng.Intn(100) < 20 {
		// Crash while holding: the lock stays until the lease expires.
		l.crashes.Add(1)
		l.holds.record(lockID, holdInterval{token: token, start: start, deadline: deadline})
		return nil
	}

	end := l.clock.Now()
	// Guarded release: delete only our own token at its observed revision —
	// if the lease expired mid-hold and someone else re-acquired, both
	// guards miss and the release becomes a no-op.
	cur, rev, err := l.db.GetRev(lockKey)
	if err == nil && binary.LittleEndian.Uint64(cur) == token {
		err = l.db.DeleteIf(lockKey, rev)
		if err != nil && !errors.Is(err, kv.ErrRevisionMismatch) && !errors.Is(err, kv.ErrNotFound) {
			return err
		}
	} else if err != nil && !errors.Is(err, kv.ErrNotFound) {
		return err
	}
	if err := l.db.Revoke(lease); err != nil && !errors.Is(err, kv.ErrLeaseNotFound) {
		return err
	}
	l.releases.Add(1)
	l.holds.record(lockID, holdInterval{token: token, start: start, deadline: deadline, end: end})
	return nil
}
