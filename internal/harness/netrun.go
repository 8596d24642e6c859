package harness

import (
	"rhtm/client"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/server"
)

// The network backend: any KV workload, served over loopback TCP. The
// spec's inner backend (store or cluster) is wrapped by a real server and
// driven through the network client, so a run measures the whole wire path
// — framing, pipelining, the cross-connection batcher — under the same
// load generator the in-process backends use (RunKV caps the requests in
// flight at the pool size when the spec is not pipelined). Setup loads,
// quiescent peeks, and invariant validation still go straight to the inner
// backend: the network is under test, not the verification.

// netBackend fronts an inner kvBackend with a server/ + client/ rig; what
// it does not override (clock, loads, peeks, placement, validation) is the
// inner backend's.
type netBackend struct {
	kvBackend
	reg   *obs.Registry // the server's instruments (server.*)
	srv   *server.Server
	cl    *client.Client
	trace bool // spec.TraceSample > 0
}

func openNetBackend(spec sizing, engineName string, cfg RunConfig) (*netBackend, error) {
	// On a net run the client owns the sampling decision (the trace rides
	// the wire frame); DB-level sampling would double-trace every N-th op.
	innerSpec := spec
	innerSpec.TraceSample = 0
	var inner kvBackend
	var served kv.Served
	if spec.Backend == BackendCluster {
		cb, err := openClusterBackend(innerSpec, engineName, cfg)
		if err != nil {
			return nil, err
		}
		inner, served = cb, cb.db
	} else {
		sb, err := openStoreBackend(innerSpec, engineName, cfg)
		if err != nil {
			return nil, err
		}
		inner, served = sb, sb.db
	}
	reg := obs.NewRegistry()
	srv := server.New(served,
		server.WithMetrics(reg), server.WithEngineName(engineName))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	clOpts := []client.Option{client.WithConns(spec.Conns)}
	if spec.TraceSample > 0 {
		clOpts = append(clOpts, client.WithTraceSampling(spec.TraceSample))
	}
	cl, err := client.Dial(addr.String(), clOpts...)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &netBackend{kvBackend: inner, reg: reg, srv: srv, cl: cl, trace: spec.TraceSample > 0}, nil
}

func (b *netBackend) DB() kv.DB { return b.cl }

func (b *netBackend) Finish(res *Result) error {
	if err := b.kvBackend.Finish(res); err != nil {
		return err
	}
	// The server's registry is separate from the DB's, so its counters
	// merge in under their own server.* names without collisions.
	for k, v := range b.reg.Snapshot().Flatten() {
		res.Counters[k] = v
	}
	if b.trace {
		// The server's flight carries the typed handling stages; the
		// client's carries the other half of each trace — the net stage.
		traceCounters(b.srv.Flight(), "trace.", res.Counters)
		traceCounters(b.cl.Flight(), "client.trace.", res.Counters)
	}
	return nil
}

// Close tears the rig down client-first, so the server sees orderly
// disconnects instead of racing its own drain.
func (b *netBackend) Close() {
	b.cl.Close()
	b.srv.Close()
}
