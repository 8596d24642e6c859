// Package server exposes a kv.Served DB over TCP. The protocol
// (server/wire) is length-prefixed, checksummed, and pipelined: every
// request carries a client-chosen id, responses are matched by id and may
// complete out of order, and watch subscriptions turn into server-push
// Event streams under the subscribing request's id.
//
// The connection machinery follows the classic three-way split: an accept
// loop (this file), per-connection session state with a reader goroutine
// that dispatches requests (session.go), and a dedicated response writer
// per connection draining an outbound queue (out.go) — so a slow client
// backpressures its own connection without ever blocking another.
//
// Two throughput features ride on top. Independent single-key requests
// (Get, unleased Put, Delete) from ALL connections are funneled into a
// group-commit batcher (batch.go) with one lane per commit domain of the DB
// (kv.DB.Domain: one per cluster System, one in all on a single System);
// each lane merges whatever queued while its previous batch ran into a
// single batch transaction — the network-side analogue of the WAL's group
// commit — which, lying within one domain, never pays two-phase commit.
// Only an op that finds its lane idle waits, behind a small time/size
// window, for stragglers to merge with.
// Batched requests on the same key execute in arrival order; requests on
// keys of different domains are concurrent, as the protocol always allowed
// (responses are matched by id and may complete out of order) — nothing
// promised an order, or an atomicity, between independent requests. And
// watch events flow through the kv layer's bounded per-subscriber queues,
// so the coalesce-then-EventLost overflow contract survives the wire
// unchanged (watch.go).
package server

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rhtm/kv"
	"rhtm/obs"
	"rhtm/server/wire"
)

// ErrServerClosed is returned by Serve after Close, and by Start/Serve on
// a server that was already shut down.
var ErrServerClosed = errors.New("server: closed")

// The tunables: the write timeout is a default an option overrides, the
// batch window, the batch cap and the drain bound are fixed.
const (
	// DefaultBatchWindow is how long a lane waits for stragglers when the
	// first op of a batch found it idle; a lane with ops queued runs them
	// at once. Small on purpose: the window exists to merge genuinely
	// concurrent arrivals, not to tax an unpipelined client's latency.
	DefaultBatchWindow = 100 * time.Microsecond
	// DefaultBatchMax caps ops merged into one batch transaction.
	DefaultBatchMax = 32
	// DefaultDrainTimeout bounds how long Close waits for in-flight
	// responses to reach clients before cutting connections.
	DefaultDrainTimeout = 2 * time.Second
	// DefaultWriteTimeout is the rolling per-write deadline on every
	// connection's outbound socket: a client that stops reading stalls its
	// writer at most this long before the write fails and the connection
	// degrades to discarding — which is what keeps one stalled reader from
	// wedging senders (the shared batcher's lanes above all) forever.
	DefaultWriteTimeout = 2 * time.Second
	// defaultMaxInflight bounds concurrently executing non-batched
	// requests per connection (the pipelining depth one session can force
	// on the DB's bounded session pools).
	defaultMaxInflight = 64
)

// Option configures a Server.
type Option func(*options)

type options struct {
	reg          *obs.Registry
	engine       string
	writeTimeout time.Duration
	replicas     func() []wire.ReplicaHealth
}

// WithMetrics registers the server's instruments (server.* names; see
// metrics.go) in reg. Pass the same registry the DB was built with
// (kv.WithMetrics) and the server's counters appear in DB.Metrics()
// snapshots alongside the engine and store taxonomy. Nil (the default)
// disables server-side instrumentation.
func WithMetrics(reg *obs.Registry) Option {
	return func(o *options) { o.reg = reg }
}

// WithEngineName sets the engine label the server answers Hello with —
// clients stamp it on tracer spans. Defaults to "net".
func WithEngineName(name string) Option {
	return func(o *options) { o.engine = name }
}

// WithReplicaStatus injects the per-replica watermark source KindHealth
// reports (typically a thin adapter over repl.Group.Status). Nil — the
// default — reports no replicas.
func WithReplicaStatus(fn func() []wire.ReplicaHealth) Option {
	return func(o *options) { o.replicas = fn }
}

// Server serves one kv.Served DB to many connections.
type Server struct {
	db     kv.Served
	opts   options
	met    serverMetrics
	batch  *batcher
	flight *obs.Flight
	start  time.Time
	wg     sync.WaitGroup // serve loops + per-connection lifecycles
	connWG sync.WaitGroup // per-connection teardown completion

	// reqTotal counts every request frame read, independent of the
	// optional registry — KindHealth's throughput-monotonicity field.
	reqTotal atomic.Uint64

	// watchMu orders subscriptions against WatchIdle's wait on the DB;
	// watching counts the watch streams of every connection still running.
	watchMu  sync.Mutex
	watching int

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[*conn]struct{}
	closed bool
}

// New builds a Server around db. The server does not own the DB: Close
// drains connections but leaves db running. Every request calls one entry
// point of db, passing the request's trace, or a nil sink when the request
// is untraced.
func New(db kv.Served, opts ...Option) *Server {
	o := options{
		engine:       "net",
		writeTimeout: DefaultWriteTimeout,
	}
	for _, opt := range opts {
		opt(&o)
	}
	s := &Server{
		db:   db,
		opts: o,
		met:  newServerMetrics(o.reg),
		// A recorder of default depth: KindTraceDump always has something
		// to serve.
		flight: obs.NewFlight(),
		start:  time.Now(),
		conns:  make(map[*conn]struct{}),
	}
	s.batch = newBatcher(db, DefaultBatchWindow, DefaultBatchMax, &s.met)
	return s
}

// Flight returns the server's flight recorder — wire it to
// repl.Group.SetFlight so traces gain their replica_apply stage, or dump
// it directly in tests.
func (s *Server) Flight() *obs.Flight { return s.flight }

// Serve accepts connections on ln until Close. It returns ErrServerClosed
// after a clean shutdown, or the listener's error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.startConn(nc)
	}
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral test port) and
// serves in a background goroutine, returning the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Close shuts the server down in drain order: stop accepting, stop
// reading new requests, finish every in-flight request and push its
// response (bounded by the drain timeout), end watch streams with
// WatchEnd frames, then cut the connections. Safe to call twice.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.connWG.Wait()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	lns := s.lns
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.beginDrain()
	}
	// Teardown (session.go) completes each connection's in-flight work;
	// the batcher must keep executing until the last one is done.
	s.connWG.Wait()
	s.batch.close()
	s.wg.Wait()
	return nil
}

func (s *Server) startConn(nc net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	c := newConn(s, nc)
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()
	s.met.connections.Add(1)
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		c.writeLoop()
	}()
	go func() {
		defer s.wg.Done()
		c.readLoop()
	}()
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.met.connections.Add(-1)
	s.connWG.Done()
}
