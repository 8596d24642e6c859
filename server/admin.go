package server

import (
	"encoding/json"
	"time"

	"rhtm/obs"
	"rhtm/server/wire"
)

// Admin introspection RPCs: three empty-payload request kinds answered
// with JSON Value frames, so one TCP connection is enough to inspect a
// running server.
//
//	KindMetrics    obs.Snapshot — the DB's metrics (engine taxonomy, store
//	               occupancy, wal.*, cluster.*) plus, when the server was
//	               built WithMetrics on the same registry, the server.*
//	               instruments.
//	KindTraceDump  obs.FlightDump — the flight recorder: per request kind,
//	               the K slowest traces, K most recent errors, K most
//	               recent overall, and per-stage P50/P95/P99.
//	KindHealth     Health (below) — liveness, throughput, and per-replica
//	               watermarks/lag.

// health assembles the KindHealth view (wire.Health — shared with the
// client and cmd/rhtop).
func (s *Server) health() wire.Health {
	s.mu.Lock()
	nconns := len(s.conns)
	s.mu.Unlock()
	h := wire.Health{
		UptimeNS:      uint64(time.Since(s.start)),
		Connections:   nconns,
		Requests:      s.reqTotal.Load(),
		AwaitingApply: s.flight.AwaitingApply(),
	}
	if s.opts.replicas != nil {
		h.Replicas = s.opts.replicas()
	}
	return h
}

// handleAdmin serves the three admin kinds; m is known to be one of them.
func (c *conn) handleAdmin(m wire.Msg, tr *obs.Trace) {
	var body any
	switch m.Kind {
	case wire.KindMetrics:
		body = c.srv.db.Metrics()
	case wire.KindTraceDump:
		body = c.srv.flight.Dump()
	case wire.KindHealth:
		body = c.srv.health()
	}
	data, err := json.Marshal(body)
	if err != nil {
		c.sendT(tr, err, errMsg(m.ID, err))
		return
	}
	c.sendT(tr, nil, wire.Msg{ID: m.ID, Kind: wire.KindValue, Value: data})
}
