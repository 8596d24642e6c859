package server

import (
	"bufio"
	"net"
	"time"

	"rhtm/internal/scratch"
	"rhtm/obs"
	"rhtm/server/wire"
)

// countingConn feeds server.bytes_in / server.bytes_out. It wraps the raw
// socket below the bufio layers, so it counts wire bytes, not calls.
type countingConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}

// send enqueues one response frame. It blocks when the outbound queue is
// full — that backpressure is the design for per-connection senders: a
// slow reader stalls its own connection's handlers (and, through the
// bounded inflight semaphore, its reader), never another connection. The
// stall is bounded, not indefinite: the writer's rolling deadline
// (writeTimeout) fails the stalled write and flips the writer to discard
// mode, which keeps draining the queue. Safe from any handler goroutine
// until teardown closes the queue, which happens only after every
// in-flight sender is accounted for.
func (c *conn) send(m wire.Msg) {
	c.out <- m
}

// sendNoWait enqueues one response frame without ever blocking: the
// bounded queue when it has room, the overflow buffer otherwise. Reserved
// for the shared batcher — each lane's merge loop serves every connection,
// so one connection's full queue must never stall it (out-of-order
// delivery relative to queued frames is fine: batched ops are single
// frames matched by id). Overflow growth is bounded by the write timeout:
// a connection that lets its queue fill is dead to the writer within
// writeTimeout, after which both queue and overflow drain as discards.
func (c *conn) sendNoWait(m wire.Msg) {
	select {
	case c.out <- m:
		return
	default:
	}
	c.ovMu.Lock()
	c.overflow = append(c.overflow, m)
	c.ovMu.Unlock()
	select {
	case c.flush <- struct{}{}:
	default:
	}
}

// takeOverflow claims the buffered overflow frames, if any.
func (c *conn) takeOverflow() []wire.Msg {
	c.ovMu.Lock()
	ov := c.overflow
	c.overflow = nil
	c.ovMu.Unlock()
	return ov
}

// armWriteDeadline sets the rolling per-frame write deadline, capped by
// teardown's hard drain bound once that is set.
func (c *conn) armWriteDeadline() {
	d := time.Now().Add(c.srv.opts.writeTimeout)
	if hard := c.hardWriteDeadline.Load(); hard != 0 {
		if h := time.Unix(0, hard); h.Before(d) {
			d = h
		}
	}
	c.cc.SetWriteDeadline(d)
}

// writeLoop is the connection's dedicated response writer: it serializes
// frames from the outbound queue (and the batcher's overflow buffer) onto
// the socket, flushing whenever the queue goes momentarily empty so
// pipelined completions coalesce into few syscalls. Every write runs
// under a rolling deadline; after the first write error — a dead or
// stalled client — it keeps draining and discards, so senders never wedge
// on a connection that stopped reading, until teardown closes the queue.
func (c *conn) writeLoop() {
	bw := bufio.NewWriterSize(c.cc, 32<<10)
	var werr error
	writeMsg := func(m wire.Msg) {
		if werr != nil {
			return
		}
		b, err := wire.Encode(c.wbuf[:0], m)
		if err != nil {
			// The only encode failure is a frame over MaxFrameBody (an
			// oversized scan entry); degrade to an error response so the
			// request id still completes client-side.
			b, _ = wire.Encode(c.wbuf[:0], wire.Msg{
				ID: m.ID, Kind: wire.KindErr,
				Code: wire.CodeTooLarge, Text: err.Error(),
			})
		}
		c.armWriteDeadline()
		if _, err := bw.Write(b); err != nil {
			werr = err
		}
		c.wbuf = scratch.Reset(b)
	}
	for {
		select {
		case m, ok := <-c.out:
			if !ok {
				// Teardown closed the queue after the last sender finished:
				// whatever sits in overflow is final.
				for _, m := range c.takeOverflow() {
					writeMsg(m)
				}
				if werr == nil {
					c.armWriteDeadline()
					bw.Flush()
				}
				close(c.writerDone)
				return
			}
			writeMsg(m)
		case <-c.flush:
		}
		for _, m := range c.takeOverflow() {
			writeMsg(m)
		}
		if werr == nil && len(c.out) == 0 {
			c.armWriteDeadline()
			if err := bw.Flush(); err != nil {
				werr = err
			}
		}
	}
}
