// Package client is the Go client for the network front end (package
// server): a connection-pooled, pipelined implementation of the kv.DB
// surface over the server/wire protocol. Every call is a request frame
// matched to its response by id, so any number of goroutines share one
// connection without head-of-line blocking; the pool spreads independent
// callers across connections round-robin.
//
// Closure transactions (Update) run the closure client-side on the same
// optimistic buffered transaction a cluster closure runs (cluster.Txn):
// each first read of a key is one GetRev round trip whose revision is
// recorded as a commit condition, writes buffer locally, and commit ships
// conditions plus writes as one Txn frame the server validates and applies
// atomically. A failed validation surfaces as kv.ErrConflict and kv.Retry
// re-runs the closure against fresh reads — the one loop the in-process
// backends run, at the edge. Watches
// are server-push streams re-exposed as kv.Watch
// channels with the same bounded-queue, coalesce-then-EventLost overflow
// contract on the client side.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rhtm/kv"
	"rhtm/obs"
	"rhtm/server/wire"
)

// ErrClosed is returned by every call after Close.
var ErrClosed = errors.New("client: closed")

// dialTimeout bounds each connection attempt.
const dialTimeout = 5 * time.Second

// Option configures a Client.
type Option func(*options)

type options struct {
	conns       int
	followers   []string
	traceSample int
}

// WithConns sets the connection pool size (default 2).
func WithConns(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.conns = n
		}
	}
}

// WithFollowerReads adds replica servers to the pool. ReadAt routes to
// them round-robin; every other call still goes to the
// primary. With no replica addresses configured, follower reads fall back
// to the primary pool (the primary is trivially a follower of itself at
// watermark = now).
func WithFollowerReads(addrs ...string) Option {
	return func(o *options) { o.followers = append(o.followers, addrs...) }
}

// WithTraceSampling traces one request in every n end to end: the sampled
// frame carries FlagTraced plus a client-chosen trace id, the server
// records the request's server-side stages into its flight recorder under
// that id, and the client records the net stage (round trip minus the
// server's echoed handling time) into its own recorder under the same id.
// n <= 0 (the default) disables sampling; the disabled path is a single
// predicted branch per request.
func WithTraceSampling(n int) Option {
	return func(o *options) { o.traceSample = n }
}

// Client implements kv.DB over a pool of server connections.
type Client struct {
	conns     []*netConn
	next      atomic.Uint64
	followers []*netConn
	fnext     atomic.Uint64
	engine    string
	trc       atomic.Pointer[tracerBox]

	// sampler/flight/traceID implement WithTraceSampling: the sampler
	// picks requests, traceID names them on the wire, and the flight
	// recorder retains the client-observed side of each trace.
	sampler *obs.Sampler
	flight  *obs.Flight
	traceID atomic.Uint64

	watchWG sync.WaitGroup
	clock   kv.Clock
	closed  atomic.Bool
}

type tracerBox struct{ t obs.Tracer }

// Dial connects n pooled connections to addr and performs the Hello
// handshake (learning the serving engine's name for tracer spans).
func Dial(addr string, opts ...Option) (*Client, error) {
	o := options{conns: 2}
	for _, opt := range opts {
		opt(&o)
	}
	c := &Client{
		sampler: obs.NewSampler(o.traceSample),
		flight:  obs.NewFlight(0),
	}
	c.trc.Store(&tracerBox{})
	c.clock = &remoteClock{c: c}
	for i := 0; i < o.conns; i++ {
		cn, err := dialConn(addr, dialTimeout)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, cn)
	}
	for _, addr := range o.followers {
		cn, err := dialConn(addr, dialTimeout)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.followers = append(c.followers, cn)
	}
	hello, err := c.conns[0].roundTrip(wire.Msg{Kind: wire.KindHello})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	c.engine = string(hello.Value)
	return c, nil
}

// Close cuts every pooled connection; in-flight calls fail promptly and
// open watch channels close.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, cn := range c.conns {
		cn.close(ErrClosed)
	}
	for _, cn := range c.followers {
		cn.close(ErrClosed)
	}
	return nil
}

// Engine returns the serving engine's name from the Hello handshake.
func (c *Client) Engine() string { return c.engine }

// SetTracer installs (or, with nil, removes) the per-transaction tracer.
// Spans are built client-side: one per closure attempt, stamped with the
// served engine's name and the commit revision the server reported.
func (c *Client) SetTracer(t obs.Tracer) { c.trc.Store(&tracerBox{t}) }

func (c *Client) tracer() obs.Tracer { return c.trc.Load().t }

// pick spreads callers across the pool round-robin.
func (c *Client) pick() *netConn {
	return c.conns[c.next.Add(1)%uint64(len(c.conns))]
}

// do runs one unary round trip on a pooled connection, sampling it for
// end-to-end tracing when WithTraceSampling is armed.
func (c *Client) do(m wire.Msg) (wire.Msg, error) {
	if c.closed.Load() {
		return wire.Msg{}, ErrClosed
	}
	return c.roundTripT(c.pick(), m)
}

// doFollower runs one unary round trip on a replica connection, falling
// back to the primary pool when no replicas are configured.
func (c *Client) doFollower(m wire.Msg) (wire.Msg, error) {
	if c.closed.Load() {
		return wire.Msg{}, ErrClosed
	}
	if len(c.followers) == 0 {
		return c.roundTripT(c.pick(), m)
	}
	return c.roundTripT(c.followers[c.fnext.Add(1)%uint64(len(c.followers))], m)
}

// beginTrace makes the sampling decision for one request. When sampled,
// it opens the client-side trace and stamps the frame so the server opens
// the matching server-side trace under the same id.
func (c *Client) beginTrace(m *wire.Msg) *obs.Trace {
	if !c.sampler.Sample() {
		return nil
	}
	tr := c.flight.NewTrace(c.traceID.Add(1), m.Kind.String())
	m.Flags |= wire.FlagTraced
	m.Trace = tr.ID()
	return tr
}

// finishTrace records the net stage — the observed round trip minus the
// handling time the server echoed on the traced response — and finishes
// the client-side trace.
func (c *Client) finishTrace(tr *obs.Trace, r wire.Msg, err error) {
	net := tr.Elapsed()
	if srv := time.Duration(r.Trace); r.Flags&wire.FlagTraced != 0 && srv > 0 && srv < net {
		net -= srv
	}
	tr.Stage(obs.StageNet, net)
	tr.Finish(err)
}

// roundTripT is roundTrip with the sampling decision wrapped around it.
func (c *Client) roundTripT(cn *netConn, m wire.Msg) (wire.Msg, error) {
	tr := c.beginTrace(&m)
	if tr == nil {
		return cn.roundTrip(m)
	}
	r, err := cn.roundTrip(m)
	c.finishTrace(tr, r, err)
	return r, err
}

// Flight returns the client-side flight recorder sampled requests are
// retained in (net-stage timings keyed by the on-wire trace ids).
func (c *Client) Flight() *obs.Flight { return c.flight }

// AdminMetrics fetches the server's metrics snapshot (KindMetrics). The
// snapshot travels as JSON (the obs.Snapshot wire form), so the client sees
// the exact flat schema the server-side DB reports — including the server.*
// instruments when the server shares the DB's registry.
func (c *Client) AdminMetrics() (obs.Snapshot, error) {
	r, err := c.do(wire.Msg{Kind: wire.KindMetrics})
	if err != nil {
		return obs.Snapshot{}, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(r.Value, &snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("client: metrics body: %w", err)
	}
	return snap, nil
}

// AdminTraces dumps the server's flight recorder (KindTraceDump): per
// request kind, the slowest traces, recent errors, recent traces, and
// per-stage latency quantiles.
func (c *Client) AdminTraces() (obs.FlightDump, error) {
	r, err := c.do(wire.Msg{Kind: wire.KindTraceDump})
	if err != nil {
		return obs.FlightDump{}, err
	}
	var d obs.FlightDump
	if err := json.Unmarshal(r.Value, &d); err != nil {
		return obs.FlightDump{}, fmt.Errorf("client: trace dump body: %w", err)
	}
	return d, nil
}

// AdminHealth fetches the server's health view (KindHealth): uptime,
// connection and request counts, and per-replica watermarks and lag.
func (c *Client) AdminHealth() (wire.Health, error) {
	r, err := c.do(wire.Msg{Kind: wire.KindHealth})
	if err != nil {
		return wire.Health{}, err
	}
	var h wire.Health
	if err := json.Unmarshal(r.Value, &h); err != nil {
		return wire.Health{}, fmt.Errorf("client: health body: %w", err)
	}
	return h, nil
}

// ReadAt implements kv.FollowerReader: a read served by a replica,
// returning the value's revision and the replica's applied watermark (the
// revision up to which it has provably replayed the primary's log). The
// replica rejects the read with kv.ErrTooStale unless its watermark has
// reached floor, so the caller can demand read-your-writes against a
// revision it learned from the primary.
func (c *Client) ReadAt(key []byte, floor kv.Revision) ([]byte, kv.Revision, kv.Revision, error) {
	if kv.IsReservedKey(key) {
		return nil, 0, 0, kv.ErrReservedKey
	}
	r, err := c.doFollower(wire.Msg{Kind: wire.KindFollowerGet, Key: key, Rev: floor})
	if err != nil {
		return nil, 0, 0, err
	}
	if r.Flags&wire.FlagAbsent != 0 {
		return nil, 0, r.Lease, kv.ErrNotFound
	}
	return r.Value, r.Rev, r.Lease, nil
}

// Get implements kv.DB.
func (c *Client) Get(key []byte) ([]byte, error) {
	if kv.IsReservedKey(key) {
		return nil, kv.ErrReservedKey
	}
	r, err := c.do(wire.Msg{Kind: wire.KindGet, Key: key})
	if err != nil {
		return nil, err
	}
	return r.Value, nil
}

// GetRev implements kv.DB.
func (c *Client) GetRev(key []byte) ([]byte, kv.Revision, error) {
	if kv.IsReservedKey(key) {
		return nil, 0, kv.ErrReservedKey
	}
	r, err := c.do(wire.Msg{Kind: wire.KindGetRev, Key: key})
	if err != nil {
		return nil, 0, err
	}
	if r.Flags&wire.FlagAbsent != 0 {
		return nil, 0, kv.ErrNotFound
	}
	return r.Value, r.Rev, nil
}

// Put implements kv.DB.
func (c *Client) Put(key, value []byte, opts ...kv.PutOption) error {
	if kv.IsReservedKey(key) {
		return kv.ErrReservedKey
	}
	_, err := c.do(wire.Msg{Kind: wire.KindPut, Key: key, Value: value, Lease: kv.LeaseOf(opts...)})
	return err
}

// PutIf implements kv.DB.
func (c *Client) PutIf(key, value []byte, rev kv.Revision, opts ...kv.PutOption) error {
	if kv.IsReservedKey(key) {
		return kv.ErrReservedKey
	}
	_, err := c.do(wire.Msg{Kind: wire.KindPutIf, Key: key, Value: value, Rev: rev, Lease: kv.LeaseOf(opts...)})
	return err
}

// Delete implements kv.DB.
func (c *Client) Delete(key []byte) error {
	if kv.IsReservedKey(key) {
		return kv.ErrReservedKey
	}
	_, err := c.do(wire.Msg{Kind: wire.KindDelete, Key: key})
	return err
}

// DeleteIf implements kv.DB.
func (c *Client) DeleteIf(key []byte, rev kv.Revision) error {
	if kv.IsReservedKey(key) {
		return kv.ErrReservedKey
	}
	_, err := c.do(wire.Msg{Kind: wire.KindDeleteIf, Key: key, Rev: rev})
	return err
}

// Batch implements kv.DB: the ops travel as one frame and execute as one
// server-side transaction.
func (c *Client) Batch(ops []kv.Op) ([]kv.OpResult, error) {
	r, err := c.do(wire.Msg{Kind: wire.KindBatch, Ops: ops})
	if err != nil {
		return nil, err
	}
	results := make([]kv.OpResult, len(r.Results))
	for i, res := range r.Results {
		results[i] = kv.OpResult{Value: res.Value, Err: wire.ErrOf(res.Code, "")}
	}
	return results, nil
}

// Domains implements kv.DB: the client cannot see the server's placement
// and has no use for it — every request is one frame the server routes.
func (c *Client) Domains() int { return 1 }

// Domain implements kv.DB.
func (c *Client) Domain([]byte) int { return 0 }

// Scan implements kv.DB: the server streams the snapshot as chunked
// frames; the returned iterator walks the collected result.
func (c *Client) Scan(start, end []byte, limit int) kv.Iterator {
	if c.closed.Load() {
		return &sliceIter{err: ErrClosed}
	}
	m := wire.Msg{Kind: wire.KindScan, Key: start, End: end, Rev: uint64(limit)}
	tr := c.beginTrace(&m)
	r, err := c.pick().scan(m)
	if tr != nil {
		c.finishTrace(tr, r, err)
	}
	if err != nil {
		return &sliceIter{err: err}
	}
	return &sliceIter{entries: r.Entries}
}

// Grant implements kv.DB.
func (c *Client) Grant(ttl uint64) (kv.LeaseID, error) {
	r, err := c.do(wire.Msg{Kind: wire.KindGrant, Rev: ttl})
	if err != nil {
		return 0, err
	}
	return r.Rev, nil
}

// KeepAlive implements kv.DB.
func (c *Client) KeepAlive(id kv.LeaseID) error {
	_, err := c.do(wire.Msg{Kind: wire.KindKeepAlive, Lease: id})
	return err
}

// Revoke implements kv.DB.
func (c *Client) Revoke(id kv.LeaseID) error {
	_, err := c.do(wire.Msg{Kind: wire.KindRevoke, Lease: id})
	return err
}

// ExpireLeases implements kv.DB.
func (c *Client) ExpireLeases() (int, error) {
	r, err := c.do(wire.Msg{Kind: wire.KindExpire})
	if err != nil {
		return 0, err
	}
	return int(r.Rev), nil
}

// Clock implements kv.DB: reading it costs one round trip per Now.
func (c *Client) Clock() kv.Clock { return c.clock }

type remoteClock struct{ c *Client }

func (rc *remoteClock) Now() uint64 {
	r, err := rc.c.do(wire.Msg{Kind: wire.KindClockNow})
	if err != nil {
		return 0
	}
	return r.Rev
}

// Checkpoint implements kv.DB.
func (c *Client) Checkpoint() error {
	_, err := c.do(wire.Msg{Kind: wire.KindCheckpoint})
	return err
}

// Metrics implements kv.DB: AdminMetrics with the error dropped (an empty
// snapshot).
func (c *Client) Metrics() obs.Snapshot {
	snap, _ := c.AdminMetrics()
	return snap
}

// WaitWatchIdle blocks until every watch channel this client handed out
// has closed and the server's watch machinery has quiesced — the remote
// form of the backends' WaitWatchIdle test hook.
func (c *Client) WaitWatchIdle() {
	c.watchWG.Wait()
	for _, cn := range c.conns {
		cn.roundTrip(wire.Msg{Kind: wire.KindWatchIdle})
	}
}

// sliceIter walks a materialized scan result.
type sliceIter struct {
	entries []wire.Entry
	i       int
	err     error
}

func (it *sliceIter) Next() bool {
	if it.err != nil || it.i >= len(it.entries) {
		return false
	}
	it.i++
	return true
}

func (it *sliceIter) Key() []byte   { return it.entries[it.i-1].Key }
func (it *sliceIter) Value() []byte { return it.entries[it.i-1].Value }
func (it *sliceIter) Err() error    { return it.err }

var _ kv.DB = (*Client)(nil)
var _ kv.FollowerReader = (*Client)(nil)
