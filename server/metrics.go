package server

import (
	"rhtm/obs"

	"rhtm/server/wire"
)

// serverMetrics holds the network front end's pre-resolved instruments,
// following the kv layer's convention: resolve by name once at
// construction, keep the hot path allocation-free, and let a nil registry
// degrade every site to a no-op. Names extend the flat taxonomy of
// DESIGN.md §10 under the server.* prefix:
//
//	server.connections        gauge      live connections
//	server.requests{kind=K}   counter    requests received, by frame kind
//	server.batch_fill         histogram  ops merged per cross-conn Batch
//	server.batch_windowed     counter    batches whose first op found its lane
//	                                     idle and held the window open
//	server.request_ns         histogram  accept-to-response wall time
//	server.bytes_in           counter    frame bytes read off the wire
//	server.bytes_out          counter    frame bytes written to the wire
//	server.watch.events_lost  counter    EventLost frames pushed to clients
type serverMetrics struct {
	connections   *obs.Gauge
	requests      [wire.KindHealth + 1]*obs.Counter
	batchFill     *obs.Histogram
	batchWindowed *obs.Counter
	requestNs     *obs.Histogram
	bytesIn       *obs.Counter
	bytesOut      *obs.Counter
	watchLost     *obs.Counter
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	m := serverMetrics{
		connections:   reg.Gauge("server.connections"),
		batchFill:     reg.Histogram("server.batch_fill"),
		batchWindowed: reg.Counter("server.batch_windowed"),
		requestNs:     reg.Histogram("server.request_ns"),
		bytesIn:       reg.Counter("server.bytes_in"),
		bytesOut:      reg.Counter("server.bytes_out"),
		watchLost:     reg.Counter("server.watch.events_lost"),
	}
	for k := wire.KindHello; k <= wire.KindMetrics; k++ {
		m.requests[k] = reg.Counter(obs.Name("server.requests", "kind", k.String()))
	}
	// Request kinds past the contiguous block (response kinds sit between
	// them in the numbering; their slots stay nil, and the nil counter
	// makes request() a no-op for misdirected response kinds).
	for _, k := range []wire.Kind{wire.KindFollowerGet, wire.KindTraceDump, wire.KindHealth} {
		m.requests[k] = reg.Counter(obs.Name("server.requests", "kind", k.String()))
	}
	return m
}

// request counts one received frame by kind; response kinds (or garbage)
// fall outside the request table and count nothing — the decoder already
// rejected anything unknown, and the dispatcher rejects misdirected
// response kinds explicitly.
func (m *serverMetrics) request(k wire.Kind) {
	if int(k) < len(m.requests) {
		m.requests[k].Inc()
	}
}
