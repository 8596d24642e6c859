package kv

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"time"

	"rhtm"
	"rhtm/obs"
	"rhtm/store"
)

// The watch hub turns the stores' commit-event rings into Go channels. One
// hub per DB owns one poller goroutine and one dedicated engine thread per
// System; it drains every ring with read-only transactions (a concurrent
// append that would tear a read aborts and retries it, so each drained
// batch is a consistent ring snapshot), merges the batch across rings by
// revision, and fans events out to subscribers over bounded host-side
// queues. Writers wake the hub after committing; a slow fallback tick
// catches writes made behind the DB's back (direct store/cluster users).
// While the poller runs, the hub holds one watch count on every ring, and
// a put copies its value into a ring only while the ring is counted
// (store/log.go): with no watch open, writes log kind, key and revision,
// and a later fromRev replay over them reports puts with a nil Value.
//
// Delivery guarantees, and their boundaries, live in exactly two places:
//
//   - The ring is bounded: if the hub falls behind it (or a subscriber
//     falls behind its queue), the gap surfaces as one EventLost marker in
//     order — never a silent drop, never a reordering. A subscriber queue
//     at its bound first coalesces per key (see MaxWatchQueue): the oldest
//     queued event of the same key is shed for the newest, so sustained
//     slow consumption degrades to latest-value-per-key before it degrades
//     to loss. Within a ring,
//     delivered events preserve log order, so per-key revisions strictly
//     increase (a key lives on one shard/System and therefore one ring).
//   - Merging across rings sorts each drained batch by revision. Ring
//     clocks are independent, so this is a deterministic interleave, not a
//     global happens-before — per-key ordering is the contract, cross-key
//     ordering is best-effort. On a single-store DB there is one ring and
//     delivery order is the commit order.

// logSource is one event ring plus the way to run a transaction on its
// System.
type logSource struct {
	log *store.EventLog
	run func(fn func(tx rhtm.Tx) error) error
}

const (
	// hubPollEvents bounds the records one drain transaction decodes, to
	// keep its read footprint within any engine's reach.
	hubPollEvents = 128
	// hubFallbackPoll is the idle re-poll period covering writes that
	// bypass the DB's wake calls.
	hubFallbackPoll = 25 * time.Millisecond
)

// MaxWatchQueue bounds a subscriber's pending events. At the bound the
// queue coalesces before it loses — see WatchQueue (watchqueue.go) for
// the full overflow ladder. A variable (not a const) so tests can shrink
// it; change it during single-threaded setup only (each subscription
// captures it at Watch time).
var MaxWatchQueue = 8192

// watchHub multiplexes one DB's event rings to its watchers.
type watchHub struct {
	newSources func() []logSource
	wakeCh     chan struct{}

	// lost counts every EventLost marker enqueued to any subscriber
	// (watch.events_lost). Set once at DB construction; nil is a no-op.
	lost *obs.Counter

	mu      sync.Mutex
	idle    *sync.Cond // signalled when the poller stops
	sources []logSource
	offsets []uint64
	dropped []uint64 // per source: ring drop counter at the last poll
	subs    map[*watchSub]struct{}
	running bool
}

func newWatchHub(newSources func() []logSource) *watchHub {
	h := &watchHub{
		newSources: newSources,
		wakeCh:     make(chan struct{}, 1),
		subs:       map[*watchSub]struct{}{},
	}
	h.idle = sync.NewCond(&h.mu)
	return h
}

// waitIdle blocks until the poller goroutine has stopped — which happens
// once every subscriber is gone, so call it only after cancelling every
// Watch context and draining the channels. After it returns, the hub's
// dedicated engine threads are guaranteed outside Atomic, making it safe
// to take engine snapshots or run raw-memory validation.
func (h *watchHub) waitIdle() {
	h.mu.Lock()
	for h.running {
		h.idle.Wait()
	}
	h.mu.Unlock()
}

// wake nudges the poller after a committed write. Non-blocking.
func (h *watchHub) wake() {
	select {
	case h.wakeCh <- struct{}{}:
	default:
	}
}

// watch registers a subscriber and returns its event channel. The channel
// closes when ctx is cancelled.
func (h *watchHub) watch(ctx context.Context, prefix []byte, fromRev Revision) (<-chan Event, error) {
	sub := &watchSub{
		prefix:  append([]byte(nil), prefix...),
		ch:      make(chan Event, 64),
		notify:  make(chan struct{}, 1),
		lost:    h.lost,
		pending: NewWatchQueue(),
	}
	h.mu.Lock()
	if h.sources == nil {
		// Engine threads are permanent registrations: create them once,
		// even if the offset initialization below has to be retried.
		h.sources = h.newSources()
	}
	if h.offsets == nil {
		if err := h.startLocked(); err != nil {
			h.mu.Unlock()
			return nil, err
		}
	}
	if fromRev > 0 {
		if err := h.replayLocked(sub, fromRev); err != nil {
			if !h.running {
				// No poller streams the rings this call counted.
				h.stopLocked()
			}
			h.mu.Unlock()
			return nil, err
		}
	}
	h.subs[sub] = struct{}{}
	if !h.running {
		h.running = true
		go h.loop()
	}
	h.mu.Unlock()
	go sub.deliver(ctx, h)
	return sub.ch, nil
}

// startLocked begins streaming at the current head of every ring. Each
// ring's watch count is raised in the transaction that reads its head, so
// every append past that head carries its value (store/log.go). Offsets
// are published only when every ring was counted and read; a failure
// lowers the counts it raised and leaves the offsets nil, so the next
// Watch retries instead of streaming stale history.
func (h *watchHub) startLocked() error {
	offsets := make([]uint64, len(h.sources))
	dropped := make([]uint64, len(h.sources))
	for i, src := range h.sources {
		err := src.run(func(tx rhtm.Tx) error {
			src.log.AddWatchers(tx, 1)
			offsets[i] = src.log.Head(tx)
			dropped[i] = src.log.Dropped(tx)
			return nil
		})
		if err != nil {
			unwatch(h.sources[:i])
			return err
		}
	}
	h.offsets, h.dropped = offsets, dropped
	return nil
}

// stopLocked ends streaming: it lowers every ring's watch count, so writes
// stop copying values, and forgets the offsets, so the next Watch starts at
// the head of that moment rather than replaying what was written between.
func (h *watchHub) stopLocked() {
	unwatch(h.sources)
	h.offsets, h.dropped = nil, nil
}

// unwatch lowers the watch count of each source's ring. A run fails only
// when its body does, and this body cannot.
func unwatch(sources []logSource) {
	for _, src := range sources {
		_ = src.run(func(tx rhtm.Tx) error {
			src.log.AddWatchers(tx, -1)
			return nil
		})
	}
}

// replayLocked seeds a new subscriber with the retained history at or past
// fromRev: each ring is read from its oldest retained record up to the
// hub's current offset (events past it arrive through the live stream, so
// the splice point is exact — no gap, no duplicate). History that fromRev
// asks for but the bounded ring no longer holds surfaces as a leading
// EventLost.
func (h *watchHub) replayLocked(sub *watchSub, fromRev Revision) error {
	var replay []Event
	lost := false
	for i, src := range h.sources {
		var srcReplay []Event
		srcLost := false
		// The body may re-execute on engine aborts: reset its side effects
		// up front so only the committed attempt's collection survives.
		err := src.run(func(tx rhtm.Tx) error {
			srcReplay, srcLost = srcReplay[:0], false
			if fromRev <= src.log.HistoryFloor(tx) {
				// The ring was rebuilt by crash recovery: history in the
				// recovered range is incomplete by construction (a
				// checkpoint folds overwritten revisions and deletes away),
				// so the replay must lead with an explicit loss marker.
				srcLost = true
			}
			pos, first := uint64(0), true
			for pos < h.offsets[i] {
				// Bounded at the hub's offset: everything past it arrives
				// through the live stream, so the splice is exact.
				evs, next, _ := src.log.ReadRange(tx, pos, h.offsets[i], hubPollEvents)
				if first {
					first = false
					// Ring revisions are dense (every revision pairs with
					// one append), so retained history starting past
					// fromRev means [fromRev, oldest) was overwritten; an
					// empty ring with an advanced clock lost everything.
					if len(evs) > 0 {
						if fromRev < evs[0].Rev {
							srcLost = true
						}
					} else if rev := src.log.Rev(tx); rev > 0 && fromRev <= rev {
						srcLost = true
					}
				}
				if len(evs) == 0 {
					break
				}
				for _, ev := range evs {
					if ev.Rev >= fromRev && sub.matches(ev.Key) {
						srcReplay = append(srcReplay, eventOf(ev))
					}
				}
				pos = next
			}
			return nil
		})
		if err != nil {
			return err
		}
		replay = append(replay, srcReplay...)
		lost = lost || srcLost
	}
	sort.SliceStable(replay, func(a, b int) bool { return replay[a].Rev < replay[b].Rev })
	if lost {
		sub.pending.PushLost()
		h.lost.Inc()
	}
	for _, ev := range replay {
		sub.pending.Append(ev)
	}
	return nil
}

// loop is the poller: wait for a wake (or the fallback tick), drain every
// ring, dispatch. It exits when the last subscriber unsubscribes.
func (h *watchHub) loop() {
	tick := time.NewTicker(hubFallbackPoll)
	defer tick.Stop()
	for {
		select {
		case <-h.wakeCh:
		case <-tick.C:
		}
		h.mu.Lock()
		if len(h.subs) == 0 {
			h.stopLocked()
			h.running = false
			h.idle.Broadcast()
			h.mu.Unlock()
			return
		}
		h.pollLocked()
		h.mu.Unlock()
	}
}

// pollLocked drains every ring once and dispatches the merged batch.
func (h *watchHub) pollLocked() {
	var batch []Event
	gap := false
	for i, src := range h.sources {
		for {
			var evs []store.Ev
			var next, oldest, drops uint64
			err := src.run(func(tx rhtm.Tx) error {
				evs, next, oldest = src.log.Read(tx, h.offsets[i], hubPollEvents)
				drops = src.log.Dropped(tx)
				return nil
			})
			if err != nil {
				// A read failure (engine contention beyond its bound) is
				// indistinguishable from loss; surface it as one.
				gap = true
				break
			}
			if oldest > h.offsets[i] {
				gap = true
			}
			if drops > h.dropped[i] {
				// The ring refused events outright (keys larger than it can
				// hold): the no-silent-drop contract demands a visible gap.
				h.dropped[i] = drops
				gap = true
			}
			h.offsets[i] = next
			for _, ev := range evs {
				batch = append(batch, eventOf(ev))
			}
			if len(evs) < hubPollEvents {
				break
			}
		}
	}
	if !gap && len(batch) == 0 {
		return
	}
	sort.SliceStable(batch, func(a, b int) bool { return batch[a].Rev < batch[b].Rev })
	for sub := range h.subs {
		if gap {
			sub.enqueueLost()
		}
		for _, ev := range batch {
			if sub.matches(ev.Key) {
				sub.enqueue(ev)
			}
		}
	}
}

// eventOf converts a store-level event.
func eventOf(ev store.Ev) Event {
	kind := EventPut
	if ev.Kind == store.EvDelete {
		kind = EventDelete
	}
	return Event{Kind: kind, Key: ev.Key, Value: ev.Value, Rev: ev.Rev}
}

// queueDepth sums the pending events across every subscriber — the
// watch.queue_depth gauge, sampled at snapshot time.
func (h *watchHub) queueDepth() int64 {
	var total int64
	h.mu.Lock()
	for sub := range h.subs {
		sub.mu.Lock()
		total += int64(sub.pending.Len())
		sub.mu.Unlock()
	}
	h.mu.Unlock()
	return total
}

// unsubscribe drops sub; the poller exits on its next round when none
// remain.
func (h *watchHub) unsubscribe(sub *watchSub) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
	h.wake()
}

// watchSub is one Watch call: a prefix filter, a bounded pending queue the
// hub appends to, and a delivery goroutine draining it into the user's
// channel.
type watchSub struct {
	prefix []byte
	ch     chan Event
	notify chan struct{}
	lost   *obs.Counter // the hub's loss counter (nil = uninstrumented)

	mu      sync.Mutex
	pending *WatchQueue
}

// matches reports whether key belongs to this subscription. A nil/empty
// prefix means "all user keys": reserved-namespace events (lease records)
// and index-namespace events are only visible to a watcher that names
// their prefix explicitly.
func (s *watchSub) matches(key []byte) bool {
	if len(s.prefix) == 0 {
		return !reservedKey(key) && !indexSpaceKey(key)
	}
	return bytes.HasPrefix(key, s.prefix)
}

// enqueue pushes one live event under the WatchQueue overflow ladder:
// coalesce to latest-value-per-key at the bound, EventLost only when no
// coalescing victim exists.
func (s *watchSub) enqueue(ev Event) {
	s.mu.Lock()
	lost := s.pending.Push(ev)
	s.mu.Unlock()
	if lost {
		s.lost.Inc()
	}
	s.nudge()
}

func (s *watchSub) enqueueLost() {
	s.mu.Lock()
	lost := s.pending.PushLost()
	s.mu.Unlock()
	if lost {
		s.lost.Inc()
	}
	s.nudge()
}

func (s *watchSub) nudge() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// deliver drains the pending queue into the subscriber's channel until ctx
// ends, then unsubscribes and closes it.
func (s *watchSub) deliver(ctx context.Context, h *watchHub) {
	defer func() {
		h.unsubscribe(s)
		close(s.ch)
	}()
	for {
		s.mu.Lock()
		ev, have := s.pending.PopFront()
		s.mu.Unlock()
		if !have {
			select {
			case <-ctx.Done():
				return
			case <-s.notify:
				continue
			}
		}
		select {
		case s.ch <- ev:
		case <-ctx.Done():
			return
		}
	}
}
