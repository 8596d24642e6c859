package kv

// Request tracing for the kv layer. A DB built WithTraceSampling(n) opens
// one obs.Trace for every n-th Update or Batch: the trace collects the
// typed stages of DESIGN.md §14 — engine (all closure attempts, with one
// obs.Span each), wal_sync (the group-commit wait), and on a cluster the
// 2pc_prepare/2pc_finish phases reported through the client's stage sink —
// and is retained by the DB's obs.Flight recorder, linked to the replica
// apply that later replays its commit revision.
//
// Front ends that own the sampling decision (the network server, which
// decides per wire frame) bypass the DB's sampler and pass their trace
// down through UpdateRevTraced/BatchTraced; a nil sink there is exactly
// the untraced path — one predicted branch per site, no stamps, no
// allocations (TestMetricsZeroAllocOnHotPath pins this).

// WithTraceSampling enables deterministic head-based trace sampling: one
// request in every n is traced (the first, then every n-th after it, per
// obs.Sampler). n <= 0 — the default — disables sampling entirely.
func WithTraceSampling(n int) Option {
	return func(o *dbOptions) { o.traceSample = n }
}
