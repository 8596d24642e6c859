package client

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"rhtm/internal/scratch"
	"rhtm/server/wire"
)

// netConn is one pooled connection: a write path serialized by mutex, a
// reader goroutine that matches response frames to waiters by id, and a
// terminal-error latch that fails everything in flight when the
// connection dies.
type netConn struct {
	nc net.Conn

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte     // the frame encoder's, kept within scratch.Bound

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*waiter

	dead    chan struct{}
	errOnce sync.Once
	termErr error
}

// waiter is one in-flight request. Unary requests complete through ch;
// scans accumulate chunked Entries frames first; watch subscriptions stay
// registered for the stream's lifetime and route through their pump.
type waiter struct {
	ch      chan wire.Msg
	scan    bool
	entries []wire.Entry
	wp      *watchPump
}

func dialConn(addr string, timeout time.Duration) (*netConn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	cn := &netConn{
		nc:      nc,
		pending: make(map[uint64]*waiter),
		dead:    make(chan struct{}),
	}
	go cn.readLoop()
	return cn, nil
}

// close latches err as the terminal error and cuts the socket; the reader
// exits and fails every in-flight waiter.
func (cn *netConn) close(err error) {
	cn.fail(err)
	cn.nc.Close()
}

// fail latches the terminal error and wakes everyone selecting on dead.
func (cn *netConn) fail(err error) {
	cn.errOnce.Do(func() {
		cn.termErr = err
		close(cn.dead)
	})
}

// register allocates a request id for w.
func (cn *netConn) register(w *waiter) uint64 {
	cn.mu.Lock()
	cn.seq++
	id := cn.seq
	cn.pending[id] = w
	cn.mu.Unlock()
	return id
}

func (cn *netConn) unregister(id uint64) {
	cn.mu.Lock()
	delete(cn.pending, id)
	cn.mu.Unlock()
}

// write encodes and sends one frame. Holding the mutex across the socket
// write keeps frames whole; pipelining comes from many goroutines
// interleaving whole frames, not bytes.
func (cn *netConn) write(m wire.Msg) error {
	select {
	case <-cn.dead:
		return cn.termErr
	default:
	}
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	b, err := wire.Encode(cn.wbuf[:0], m)
	if err != nil {
		return err
	}
	_, err = cn.nc.Write(b)
	cn.wbuf = scratch.Reset(b)
	if err != nil {
		cn.fail(fmt.Errorf("client: write: %w", err))
		cn.nc.Close()
		return cn.termErr
	}
	return nil
}

// unaryWaiters recycles the waiters of unary requests, channel included.
var unaryWaiters = sync.Pool{New: func() any { return &waiter{ch: make(chan wire.Msg, 1)} }}

// roundTrip sends one unary request and waits for its response. Its waiter
// goes back to the pool only once its one response has been received: on
// the write-error and dead paths the reader may still hold it, and a late
// send would land in whichever request took it next.
func (cn *netConn) roundTrip(m wire.Msg) (wire.Msg, error) {
	w := unaryWaiters.Get().(*waiter)
	m.ID = cn.register(w)
	if err := cn.write(m); err != nil {
		cn.unregister(m.ID)
		return wire.Msg{}, err
	}
	select {
	case r := <-w.ch:
		unaryWaiters.Put(w)
		if r.Kind == wire.KindErr {
			return wire.Msg{}, wire.ErrOf(r.Code, r.Text)
		}
		return r, nil
	case <-cn.dead:
		return wire.Msg{}, cn.termErr
	}
}

// scan sends one Scan request and collects the chunked response. The
// returned frame is the final one with all chunks' entries merged in — so
// the caller also sees the final frame's trace stamp.
func (cn *netConn) scan(m wire.Msg) (wire.Msg, error) {
	w := &waiter{ch: make(chan wire.Msg, 1), scan: true}
	m.ID = cn.register(w)
	if err := cn.write(m); err != nil {
		cn.unregister(m.ID)
		return wire.Msg{}, err
	}
	select {
	case r := <-w.ch:
		if r.Kind == wire.KindErr {
			return wire.Msg{}, wire.ErrOf(r.Code, r.Text)
		}
		return r, nil
	case <-cn.dead:
		return wire.Msg{}, cn.termErr
	}
}

// readLoop matches response frames to waiters until the connection dies,
// then fails everything in flight. Watch frames route to their pump's
// bounded queue without ever blocking the reader.
func (cn *netConn) readLoop() {
	br := bufio.NewReaderSize(cn.nc, 32<<10)
	for {
		// Each decoded message aliases its own frame buffer, so it may
		// escape to a waiter uncopied.
		m, err := wire.ReadMsg(br)
		if err != nil {
			cn.fail(fmt.Errorf("client: connection lost: %w", err))
			cn.nc.Close()
			break
		}
		cn.mu.Lock()
		w := cn.pending[m.ID]
		switch {
		case w == nil:
			// Late frame for an abandoned id (e.g. a watch already torn
			// down): drop it.
			cn.mu.Unlock()
		case w.wp != nil:
			if m.Kind == wire.KindWatchEnd || m.Kind == wire.KindErr {
				delete(cn.pending, m.ID)
			}
			cn.mu.Unlock()
			w.wp.deliver(m)
		case w.scan && m.Kind == wire.KindEntries && m.Flags&wire.FlagFinal == 0:
			w.entries = append(w.entries, m.Entries...)
			cn.mu.Unlock()
		default:
			delete(cn.pending, m.ID)
			cn.mu.Unlock()
			if w.scan && m.Kind == wire.KindEntries {
				m.Entries = append(w.entries, m.Entries...)
			}
			w.ch <- m
		}
	}
	// Terminal: watch pumps learn through dead; unary waiters select on
	// dead themselves. Nothing further arrives, so just drop the map.
	cn.mu.Lock()
	cn.pending = make(map[uint64]*waiter)
	cn.mu.Unlock()
}
