package server

import (
	"context"
	"fmt"

	"rhtm/kv"
	"rhtm/server/wire"
)

// Watch control runs inline on the reader goroutine — subscribe, cancel,
// and idle must stay ordered with one another, and the byte stream is the
// ordering. Event delivery runs on one goroutine per stream, pushing
// frames under the subscribing request's id; the kv layer's bounded
// per-subscriber queue (coalesce, then EventLost) sits between commits
// and this goroutine, so a slow client degrades exactly like a slow
// in-process consumer.

// watchReg is one registered watch stream: its context's cancel, and
// whether a cancel has been requested — the bit WatchIdle needs to know
// the stream is guaranteed to end on its own.
type watchReg struct {
	cancel    context.CancelFunc
	cancelled bool
}

// handleWatch subscribes and starts the stream: OK, then Event frames,
// then one WatchEnd after cancel, disconnect, or server drain.
func (c *conn) handleWatch(m wire.Msg) {
	c.watchMu.Lock()
	if _, dup := c.watches[m.ID]; dup {
		c.watchMu.Unlock()
		c.send(errMsg(m.ID, fmt.Errorf("server: watch id %d already active", m.ID)))
		return
	}
	ctx, cancel := context.WithCancel(c.ctx)
	srv := c.srv
	srv.watchMu.Lock()
	ch, err := srv.db.Watch(ctx, m.Key, m.Rev)
	if err == nil {
		srv.watching++
	}
	srv.watchMu.Unlock()
	if err != nil {
		c.watchMu.Unlock()
		cancel()
		c.send(errMsg(m.ID, err))
		return
	}
	c.watches[m.ID] = &watchReg{cancel: cancel}
	c.watchWG.Add(1)
	c.watchMu.Unlock()
	c.send(wire.Msg{ID: m.ID, Kind: wire.KindOK})
	go c.streamWatch(m.ID, ch, cancel)
}

func (c *conn) streamWatch(id uint64, ch <-chan kv.Event, cancel context.CancelFunc) {
	defer c.watchWG.Done()
	for ev := range ch {
		if ev.Kind == kv.EventLost {
			c.srv.met.watchLost.Inc()
		}
		c.send(wire.Msg{
			ID: id, Kind: wire.KindEvent, Code: uint8(ev.Kind),
			Key: ev.Key, Value: ev.Value, Rev: ev.Rev,
		})
	}
	// The DB closed ch after unsubscribing it. Uncount the stream before
	// its WatchEnd goes out, so a client that saw the WatchEnd and then
	// sends WatchIdle on another connection finds it gone.
	c.srv.watchMu.Lock()
	c.srv.watching--
	c.srv.watchMu.Unlock()
	c.send(wire.Msg{ID: id, Kind: wire.KindWatchEnd})
	cancel()
	c.watchMu.Lock()
	delete(c.watches, id)
	c.watchMu.Unlock()
}

// handleWatchCancel stops the watch whose stream id rides in Rev. The
// acknowledgment answers the cancel's own id; the stream keeps draining
// already-queued events and closes with its WatchEnd. Cancelling a watch
// that already ended is a no-op, not an error — the races are benign.
func (c *conn) handleWatchCancel(m wire.Msg) {
	c.watchMu.Lock()
	reg := c.watches[m.Rev]
	if reg != nil {
		reg.cancelled = true
	}
	c.watchMu.Unlock()
	if reg != nil {
		reg.cancel()
	}
	c.send(wire.Msg{ID: m.ID, Kind: wire.KindOK})
}

// handleWatchIdle answers once this connection's watch streams have ended
// and, when no other connection holds a live stream, the DB's watch
// machinery has quiesced — the remote form of the WaitWatchIdle test hook.
// Blocking the reader is the point: the client sends it only after
// cancelling its watches, and the ordered byte stream guarantees those
// cancels were dispatched first. Blocking is only safe, though, when every
// stream it waits for is certain to end: a stream of this connection whose
// cancel was never requested ends only through teardown, which needs this
// very reader to exit, so an idle issued over active watches is answered
// with an error instead of a deadlock; and the DB goes idle only once every
// subscriber is gone, so the wait on it is skipped while another
// connection's stream runs. Holding the server's watchMu across that wait
// keeps a new subscription from starting under it.
func (c *conn) handleWatchIdle(m wire.Msg) {
	c.watchMu.Lock()
	active := 0
	for _, reg := range c.watches {
		if !reg.cancelled {
			active++
		}
	}
	c.watchMu.Unlock()
	if active > 0 {
		c.send(errMsg(m.ID, fmt.Errorf("server: watch idle with %d uncancelled watch(es)", active)))
		return
	}
	c.watchWG.Wait()
	srv := c.srv
	srv.watchMu.Lock()
	if srv.watching == 0 {
		srv.db.WaitWatchIdle()
	}
	srv.watchMu.Unlock()
	c.send(wire.Msg{ID: m.ID, Kind: wire.KindOK})
}
