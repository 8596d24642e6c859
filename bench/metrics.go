package main

import (
	"runtime"
	"time"

	"rhtm/obs"
	"rhtm/server/wire"
	"rhtm/wal"
)

// metricDef names one metric; BENCHMARK.json lists the same names, units,
// directions and bounds, and bench_test.go holds the two together.
type metricDef struct {
	name   string
	unit   string
	higher bool    // larger is better
	bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd are the seven metrics a user of the system sees, reported per
// workload. The host-clock ones are quiet-window estimates (record.go).
//
// A bound has to clear the spread the same code shows against itself on
// the shared two-core host this was written on (README.md has the
// numbers), for the worst workload, since the contract file holds one
// bound per metric. That is why the clocked ones sit at the contract's
// ceiling, and why the two counts that are exact on the one-worker
// workloads carry the slack stack-a's sixteen racing callers and
// table-query's seed-dependent slice growth need. -selfcheck holds the
// exact workloads to equality regardless.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"p50_us", "us", false, 0.25},
	{"ops_per_kacc", "ops/kacc", true, 0.15},
	{"allocs_per_op", "count", false, 0.03},
	{"alloc_bytes_per_op", "B", false, 0.15},
	{"heap_mb", "MB", false, 0.05},
}

// exactWorkloads are those whose counted pass repeats to the last digit
// for a given seed.
var exactWorkloads = map[string]bool{"rbtree-20": true, "kv-a": true, "table-query": true}

// perLayer are the single-layer metrics of the traced run. None is gated;
// each says where an end-to-end movement came from (README.md maps each to
// the end-to-end metric and workload it should move).
var perLayer = []metricDef{
	{"engine.acc_per_op", "acc", false, 0},
	{"engine.fast_commit_share", "share", true, 0},
	{"engine.slow_commit_share", "share", false, 0},
	{"engine.aborts_per_kop", "1/kop", false, 0},
	{"engine.capacity_aborts_per_kop", "1/kop", false, 0},
	{"engine.rh2_fallbacks_per_kop", "1/kop", false, 0},
	{"engine.attempts_per_op", "count", false, 0},
	{"engine.busy_us_per_op", "us", false, 0},
	{"engine.host_ns_per_acc", "ns", false, 0},
	{"containers.acc_per_lookup", "acc", false, 0},
	{"containers.acc_per_update", "acc", false, 0},
	{"store.acc_per_get", "acc", false, 0},
	{"store.acc_per_put", "acc", false, 0},
	{"store.arena_words_per_key", "words", false, 0},
	{"kv.self_us_per_op", "us", false, 0},
	{"kv.calls_per_op", "count", false, 0},
	{"kv.retries_per_kop", "1/kop", false, 0},
	{"wal.bytes_per_op", "B", false, 0},
	{"wal.frames_per_txn", "count", false, 0},
	{"wal.txns_per_sync", "count", true, 0},
	{"wal.device_us_per_op", "us", false, 0},
	{"wal.self_us_per_op", "us", false, 0},
	{"wal.sync_stage_p50_us", "us", false, 0},
	{"cluster.cross_share", "share", false, 0},
	{"cluster.ops_per_kinterval", "ops/kacc", true, 0},
	{"cluster.prepare_us_mean", "us", false, 0},
	{"cluster.finish_us_mean", "us", false, 0},
	{"cluster.prepare_conflicts_per_kop", "1/kop", false, 0},
	{"cluster.intent_waits_per_kop", "1/kop", false, 0},
	{"repl.catchup_ms", "ms", false, 0},
	{"repl.acc_share", "share", false, 0},
	{"repl.apply_batch_mean", "count", true, 0},
	{"server.batch_fill", "count", true, 0},
	{"server.batch_wait_p50_us", "us", false, 0},
	{"server.queue_wait_p50_us", "us", false, 0},
	{"server.engine_stage_p50_us", "us", false, 0},
	{"server.request_us_mean", "us", false, 0},
	{"server.bytes_in_per_op", "B", false, 0},
	{"server.bytes_out_per_op", "B", false, 0},
	{"server.frontend_self_us_per_op", "us", false, 0},
	{"client.net_stage_p50_us", "us", false, 0},
	{"wire.encode_ns_per_msg", "ns", false, 0},
	{"wire.decode_ns_per_msg", "ns", false, 0},
	{"wire.allocs_per_msg", "count", false, 0},
	{"table.point_acc_per_op", "acc", false, 0},
	{"table.range_acc_per_op", "acc", false, 0},
	{"table.order_acc_per_op", "acc", false, 0},
	{"table.upsert_acc_per_op", "acc", false, 0},
	{"table.point_p50_us", "us", false, 0},
	{"table.range_p50_us", "us", false, 0},
	{"table.order_p50_us", "us", false, 0},
	{"table.upsert_p50_us", "us", false, 0},
	{"table.kv_calls_per_select", "count", false, 0},
	{"table.rows_scanned_per_row", "count", false, 0},
	{"table.plan_share_point", "share", true, 0},
	{"table.plan_share_index", "share", true, 0},
	{"table.plan_share_covering", "share", true, 0},
	{"index.maintain_ops_per_upsert", "count", false, 0},
	{"index.entries_per_row", "count", false, 0},
	{"lat.p99_us", "us", false, 0},
	{"host.ops_per_s_mean", "1/s", true, 0},
	{"host.slow_segment_share", "share", false, 0},
	{"host.steal_share", "share", false, 0},
	{"host.cpu_us_per_op", "us", false, 0},
	{"host.gc_pause_us_per_kop", "us/kop", false, 0},
	{"trace.overhead_share", "share", false, 0},
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measured is everything one run observed, from which both metric sets are
// computed.
type measured struct {
	w       *workload
	setups  []time.Duration
	timed   timedStats
	h0, h1  hostSample // around the timed pass
	cs      *counted
	d       ledger // counted pass: after − before
	after   ledger
	acct    accounts
	catchup time.Duration
	// untraced is the rate of the counted pass's untraced first half.
	untraced float64
	heapMB   float64
	micro    micro
}

func (m *measured) endToEnd() map[string]float64 {
	setup := m.setups[0]
	for _, s := range m.setups {
		setup = min(setup, s)
	}
	ops := float64(m.cs.ops)
	return map[string]float64{
		"setup_s":            setup.Seconds(),
		"ops_per_s":          m.timed.opsPerS,
		"p50_us":             m.timed.p50us,
		"ops_per_kacc":       div(1000*ops, float64(m.d["engine.acc"]+m.d["repl.acc"])),
		"allocs_per_op":      div(float64(m.cs.mallocs), ops),
		"alloc_bytes_per_op": div(float64(m.cs.allocBytes), ops),
		"heap_mb":            m.heapMB,
	}
}

// kindStats sums the counted pass's per-kind counters over the kinds whose
// root span name satisfies pick.
func (m *measured) kindStats(pick func(name string) bool) (acc, kvCalls, ops float64) {
	for k, name := range m.w.kinds {
		if pick(name) {
			acc += float64(m.cs.kindAcc[k])
			kvCalls += float64(m.cs.kindKV[k])
			ops += float64(m.cs.kindOps[k])
		}
	}
	return
}

func (m *measured) kindP50(name string) float64 {
	for k, n := range m.w.kinds {
		if n == name {
			return m.cs.kindP50us(k)
		}
	}
	return 0
}

func (m *measured) perLayer() map[string]float64 {
	d, after, a := m.d, m.after, m.acct
	f := func(k string) float64 { return float64(d[k]) }
	ops := float64(m.cs.ops)
	is := func(name string) func(string) bool { return func(n string) bool { return n == name } }
	accPer := func(name string) float64 {
		acc, _, n := m.kindStats(is(name))
		return div(acc, n)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	tbl := func(base string, labels ...string) string {
		return obs.Name(base, append([]string{"table", "kv0"}, labels...)...)
	}
	idx := func(base string, labels ...string) string {
		return obs.Name(base, append([]string{"idx", "kv0." + tableIndex}, labels...)...)
	}
	_, selKV, selOps := m.kindStats(func(n string) bool { return n != "table.upsert" && layerOf(n) == "table" })
	_, _, upserts := m.kindStats(is("table.upsert"))
	maxSys := max(f("sys.acc.0"), f("sys.acc.1"))
	timedOps := float64(m.timed.ops)

	out := map[string]float64{
		"engine.acc_per_op":              div(f("engine.acc"), ops),
		"engine.fast_commit_share":       div(f("engine.fast"), f("engine.commits")),
		"engine.slow_commit_share":       div(f("engine.commits")-f("engine.fast"), f("engine.commits")),
		"engine.aborts_per_kop":          div(1000*f("engine.aborts"), ops),
		"engine.capacity_aborts_per_kop": div(1000*f("engine.capacity"), ops),
		"engine.rh2_fallbacks_per_kop":   div(1000*f("engine.rh2"), ops),
		"engine.attempts_per_op":         div(f("engine.commits")+f("engine.aborts"), ops),
		"engine.busy_us_per_op":          div(us(a.total["engine"]), ops),
		"engine.host_ns_per_acc":         div(float64(a.total["engine"]), f("engine.acc")),

		"containers.acc_per_lookup": accPer("containers.lookup"),
		"containers.acc_per_update": accPer("containers.update"),

		"store.acc_per_get":         accPer("kv.get"),
		"store.acc_per_put":         accPer("kv.put"),
		"store.arena_words_per_key": div(float64(after["db.store.arena.live_words"]), float64(after["db.store.live_keys"])),

		"kv.self_us_per_op": div(us(a.self["kv"]), ops),
		"kv.calls_per_op":   div(float64(a.count["kv"]), ops),
		"kv.retries_per_kop": div(1000*(f("db.cluster.local_conflicts")+f("db.cluster.cross_aborts")+
			f("client.conflicts")), ops),

		"wal.bytes_per_op":      div(f("wal.bytes"), ops),
		"wal.frames_per_txn":    div(f("wal.frames"), f("wal.txns")),
		"wal.txns_per_sync":     div(f("wal.txns"), f("wal.syncs")),
		"wal.device_us_per_op":  div(us(a.total["wal"]), ops),
		"wal.self_us_per_op":    div(m.micro.walSelfNsPerTxn*f("wal.txns")/1e3, ops),
		"wal.sync_stage_p50_us": us(after["g.stage."+obs.StageWALSync]),

		"cluster.cross_share":               div(f("db.cluster.cross_txns"), f("db.cluster.cross_txns")+f("db.cluster.local_txns")),
		"cluster.ops_per_kinterval":         div(1000*ops, maxSys),
		"cluster.prepare_us_mean":           div(f("db.cluster.2pc.prepare_ns.sum")/1e3, f("db.cluster.2pc.prepare_ns.count")),
		"cluster.finish_us_mean":            div(f("db.cluster.2pc.finish_ns.sum")/1e3, f("db.cluster.2pc.finish_ns.count")),
		"cluster.prepare_conflicts_per_kop": div(1000*f("db.cluster.prepare_conflicts"), ops),
		"cluster.intent_waits_per_kop":      div(1000*f("db.cluster.intent_waits"), ops),

		"repl.catchup_ms":       float64(m.catchup) / 1e6,
		"repl.acc_share":        div(f("repl.acc"), f("repl.acc")+f("engine.acc")),
		"repl.apply_batch_mean": div(f("repl.apply_batch.sum"), f("repl.apply_batch.count")),

		"server.batch_fill":              div(f("server.batch_fill.sum"), f("server.batch_fill.count")),
		"server.batch_wait_p50_us":       us(after["g.stage."+obs.StageBatchWait]),
		"server.queue_wait_p50_us":       us(after["g.stage."+obs.StageQueueWait]),
		"server.engine_stage_p50_us":     us(after["g.stage."+obs.StageEngine]),
		"server.request_us_mean":         div(f("server.request_ns.sum")/1e3, f("server.request_ns.count")),
		"server.bytes_in_per_op":         div(f("server.bytes_in"), ops),
		"server.bytes_out_per_op":        div(f("server.bytes_out"), ops),
		"server.frontend_self_us_per_op": div(us(a.self["client"]), ops),
		"client.net_stage_p50_us":        us(after["g.stage."+obs.StageNet]),

		"wire.encode_ns_per_msg": m.micro.wireEncodeNs,
		"wire.decode_ns_per_msg": m.micro.wireDecodeNs,
		"wire.allocs_per_msg":    m.micro.wireAllocs,

		"table.point_acc_per_op":     accPer("table.point"),
		"table.range_acc_per_op":     accPer("table.range"),
		"table.order_acc_per_op":     accPer("table.order"),
		"table.upsert_acc_per_op":    accPer("table.upsert"),
		"table.point_p50_us":         m.kindP50("table.point"),
		"table.range_p50_us":         m.kindP50("table.range"),
		"table.order_p50_us":         m.kindP50("table.order"),
		"table.upsert_p50_us":        m.kindP50("table.upsert"),
		"table.kv_calls_per_select":  div(selKV, selOps),
		"table.rows_scanned_per_row": div(f(tbl("table.rows.scanned")), f("table.returned")),
		"table.plan_share_point":     div(f(tbl("table.planner.picks", "plan", "point")), f(tbl("table.selects"))),
		"table.plan_share_index":     div(f(tbl("table.planner.picks", "plan", "index")), f(tbl("table.selects"))),
		"table.plan_share_covering":  div(f(tbl("table.planner.picks", "plan", "covering")), f(tbl("table.selects"))),
		"index.maintain_ops_per_upsert": div(f(idx("index.maintain.ops", "op", "insert"))+
			f(idx("index.maintain.ops", "op", "delete"))+f(idx("index.maintain.ops", "op", "update")), upserts),
		"index.entries_per_row": div(float64(after[idx("index.entries")]), float64(after[tbl("table.rows")])),

		"lat.p99_us":               m.timed.p99us,
		"host.ops_per_s_mean":      m.timed.meanOpsPerS,
		"host.slow_segment_share":  m.timed.slowShare,
		"host.steal_share":         div(float64(m.h1.steal-m.h0.steal), float64(m.h1.total-m.h0.total)),
		"host.cpu_us_per_op":       div(float64(m.h1.cpu-m.h0.cpu)/1e3, timedOps),
		"host.gc_pause_us_per_kop": div(float64(m.h1.mem.PauseTotalNs-m.h0.mem.PauseTotalNs), timedOps),
		"trace.overhead_share":     1 - div(div(ops, m.cs.elapsed.Seconds()), m.untraced),
	}
	return out
}

// micro holds the numbers taken by calling a layer directly, for the
// layers no decorator can bracket: wire is called by the server and client
// themselves, and wal.Writer is built inside kv.Open*.
type micro struct {
	wireEncodeNs, wireDecodeNs, wireAllocs float64
	walSelfNsPerTxn                        float64
}

// timedDevice accumulates the time spent inside the device under a writer.
type timedDevice struct {
	wal.Device
	ns time.Duration
}

func (d *timedDevice) Append(p []byte) error {
	t := time.Now()
	err := d.Device.Append(p)
	d.ns += time.Since(t)
	return err
}

func (d *timedDevice) Sync() error {
	t := time.Now()
	err := d.Device.Sync()
	d.ns += time.Since(t)
	return err
}

// runMicro measures wire on a Get and a Put request and their responses,
// and one-record commits through a wal.Writer net of its device.
func runMicro(n int) (micro, error) {
	key := appendKey(nil, "user", 42)
	val := make([]byte, valueBytes)
	fillValue(val, 1, 42, 1)
	msgs := []wire.Msg{
		{ID: 7, Kind: wire.KindGet, Key: key},
		{ID: 8, Kind: wire.KindPut, Key: key, Value: val},
		{ID: 7, Kind: wire.KindValue, Value: val},
		{ID: 8, Kind: wire.KindOK},
	}
	var mi micro
	var frames [][]byte
	for _, m := range msgs {
		b, err := wire.Encode(nil, m)
		if err != nil {
			return mi, err
		}
		frames = append(frames, b)
	}
	var m0, m1 runtime.MemStats
	buf := make([]byte, 0, 256)
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for i := 0; i < n; i++ {
		buf, _ = wire.Encode(buf[:0], msgs[i%len(msgs)])
	}
	enc := time.Since(t)
	t = time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := wire.Decode(frames[i%len(frames)]); err != nil {
			return mi, err
		}
	}
	dec := time.Since(t)
	runtime.ReadMemStats(&m1)
	mi.wireEncodeNs = float64(enc) / float64(n)
	mi.wireDecodeNs = float64(dec) / float64(n)
	mi.wireAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)

	dev := &timedDevice{Device: &wal.MemDevice{}}
	w := wal.NewWriter(dev, 1, nil, wal.Options{})
	t = time.Now()
	for i := 0; i < n; i++ {
		if err := w.Commit(uint64(i+1), 0, []wal.Op{{Kind: wal.OpPut, Key: key, Value: val, Rev: uint64(i + 1)}}); err != nil {
			return mi, err
		}
	}
	mi.walSelfNsPerTxn = float64(time.Since(t)-dev.ns) / float64(n)
	return mi, nil
}
