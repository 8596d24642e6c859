package harness

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"rhtm/kv"
	"rhtm/obs"
	"rhtm/table"
)

// The table mixes run the table/ record layer over the same backends as
// the raw KV mixes: "eidx" re-serves YCSB-E's short ordered scans from a
// secondary index (the planner turns each query into a bounded index
// range scan with base-row fetches), and "query" is a planner-driven
// point/range/order-limit mix with upsert churn. Every operation pays
// the record layer's real costs — ordered-codec encoding, write-through
// index maintenance, statistics shards, planner-chosen scans — so the
// architectural metric compares the layered store against the raw one.
// The tables report through their own registry, which the mixes merge
// into Result.Counters under table.* / index.* next to the DB's.

// tableState carries one run's table handles and their metrics registry.
type tableState struct {
	spec   KVSpec
	reg    *obs.Registry
	tables []*table.Table
	pad    string
}

// tableSchema is the i-th table of the mix: an integer primary key, an
// indexed low-cardinality bucket (IdxSel sets its domain), and a payload
// string sized by ValueBytes.
func tableSchema(i int) table.Schema {
	return table.Schema{
		Name: fmt.Sprintf("kv%d", i),
		Fields: []table.Field{
			{Name: "id", Type: table.TInt64},
			{Name: "bucket", Type: table.TInt64},
			{Name: "pad", Type: table.TString},
		},
		Key:     []string{"id"},
		Indexes: []table.Index{{Name: "by_bucket", Fields: []string{"bucket"}}},
	}
}

// openTables binds the run's tables over db — all reporting through one
// fresh registry — and populates the Records rows through Table.Insert,
// so every row gets its index entry and statistics on the way in.
func openTables(spec KVSpec, db kv.DB) (*tableState, error) {
	ts := &tableState{spec: spec, reg: obs.NewRegistry(),
		pad: strings.Repeat("x", spec.ValueBytes)}
	for i := 0; i < spec.Tables; i++ {
		tbl, err := table.New(db, tableSchema(i), table.WithMetrics(ts.reg))
		if err != nil {
			return nil, err
		}
		ts.tables = append(ts.tables, tbl)
	}
	for i := 0; i < spec.Records; i++ {
		if err := ts.tableFor(i).Insert(ts.row(i)); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// row materializes the i-th record: the bucket cycles through the
// IdxSel-value domain within the row's table, so every table holds all
// buckets at equal depth.
func (ts *tableState) row(i int) []table.Value {
	return []table.Value{
		table.Int64(int64(i)),
		table.Int64(int64((i / ts.spec.Tables) % ts.spec.IdxSel)),
		table.String(ts.pad),
	}
}

// tableFor places record i (records round-robin over the tables).
func (ts *tableState) tableFor(i int) *table.Table {
	return ts.tables[i%ts.spec.Tables]
}

// counters merges the tables' registry into out. It is separate from the
// DB's, so the table.* and index.* names cannot collide with it (same
// pattern as the net backend's server.*).
func (ts *tableState) counters(out map[string]int64) {
	for k, v := range ts.reg.Snapshot().Flatten() {
		out[k] = v
	}
}

// indexScanRun is the run state of YCSB-E re-served from the index: 95%
// bounded index scans, 5% row inserts.
type indexScanRun struct {
	*kvRun
	growth
	scanTally
	tables *tableState
}

func openIndexScans(run *kvRun) (mixRun, error) {
	ts, err := openTables(run.spec, run.db)
	return &indexScanRun{kvRun: run, tables: ts}, err
}

func (x *indexScanRun) counters(out map[string]int64) {
	x.growth.counters(out)
	x.scanTally.counters(out)
	x.tables.counters(out)
}

func (x *indexScanRun) audit() error { return nil }

func (x *indexScanRun) step(w *kvWorker) error {
	if w.rng.Intn(100) < x.mix.readPct {
		return x.scan(w)
	}
	// Append one new row past the loaded id space, or upsert an existing
	// one when the arena is full — same contract as the raw mixes' insert.
	return x.insert(x.spec.Records,
		func(id int) error { return x.tables.tableFor(id).Insert(x.tables.row(id)) },
		func() error {
			id := x.record(w)
			return x.tables.tableFor(id).Upsert(x.tables.row(id))
		})
}

// scan is the index-served YCSB-E scan: a short ordered read of the
// secondary index starting at a drawn bucket. The lower bound, order,
// and limit let the planner bound the index scan at the limit — the
// record-layer analog of the raw mix's range cursor.
func (x *indexScanRun) scan(w *kvWorker) error {
	t := x.tables.tableFor(x.record(w))
	lo := int64(w.rng.Intn(x.spec.IdxSel))
	rows, err := t.Select(table.Query{
		Conds: []table.Cond{table.Ge("bucket", table.Int64(lo))},
		Order: "bucket",
		Limit: 1 + w.rng.Intn(x.spec.ScanMax),
	})
	if err != nil {
		return err
	}
	if len(rows) == 0 && lo == 0 {
		return fmt.Errorf("index scan from bucket 0 yielded nothing")
	}
	x.add(len(rows))
	return nil
}

// queryRun is the run state of the planner-driven query mix.
type queryRun struct {
	*kvRun
	tables *tableState

	points  atomic.Uint64 // planner-served point queries
	ranges  atomic.Uint64 // bucket-range queries
	orders  atomic.Uint64 // covering order-limit queries
	upserts atomic.Uint64 // committed upserts
	scanned atomic.Uint64 // rows the range and order-limit queries yielded
}

func openQueries(run *kvRun) (mixRun, error) {
	ts, err := openTables(run.spec, run.db)
	return &queryRun{kvRun: run, tables: ts}, err
}

func (q *queryRun) counters(out map[string]int64) {
	out["harness.point_queries"] = int64(q.points.Load())
	out["harness.range_queries"] = int64(q.ranges.Load())
	out["harness.order_queries"] = int64(q.orders.Load())
	out["harness.upserts"] = int64(q.upserts.Load())
	out["harness.scanned"] = int64(q.scanned.Load())
	q.tables.counters(out)
}

func (q *queryRun) audit() error { return nil }

func (q *queryRun) step(w *kvWorker) error {
	switch r := w.rng.Intn(100); {
	case r < 45:
		return q.point(w)
	case r < 70:
		return q.between(w)
	case r < 90:
		return q.orderLimit(w)
	default:
		return q.upsert(w)
	}
}

// point is a planner-served point read: the filter pins the primary key,
// so the plan must be the cost-1 point get.
func (q *queryRun) point(w *kvWorker) error {
	id := q.record(w)
	rows, err := q.tables.tableFor(id).Select(table.Query{
		Conds: []table.Cond{table.Eq("id", table.Int64(int64(id)))},
	})
	if err != nil {
		return err
	}
	if len(rows) != 1 {
		return fmt.Errorf("point query id=%d yielded %d rows, want 1", id, len(rows))
	}
	q.points.Add(1)
	return nil
}

// between is a bounded bucket-range read: Between on the indexed field
// plus order and limit, which the planner serves from the index with the
// limit bounding the scan.
func (q *queryRun) between(w *kvWorker) error {
	lo := int64(w.rng.Intn(q.spec.IdxSel))
	rows, err := q.tables.tableFor(q.record(w)).Select(table.Query{
		Conds: []table.Cond{table.Between("bucket",
			table.Int64(lo), table.Int64(lo+1+int64(w.rng.Intn(4))))},
		Order: "bucket",
		Limit: 1 + w.rng.Intn(q.spec.ScanMax),
	})
	if err != nil {
		return err
	}
	q.ranges.Add(1)
	q.scanned.Add(uint64(len(rows)))
	return nil
}

// orderLimit is the covering top-K read: order by the indexed bucket,
// projecting only fields the index entries (plus the primary key) carry,
// so the planner answers from the index alone with no base-row fetches.
func (q *queryRun) orderLimit(w *kvWorker) error {
	rows, err := q.tables.tableFor(q.record(w)).Select(table.Query{
		Order:  "bucket",
		Limit:  1 + w.rng.Intn(q.spec.ScanMax),
		Fields: []string{"id", "bucket"},
	})
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("order-limit query yielded nothing")
	}
	q.orders.Add(1)
	q.scanned.Add(uint64(len(rows)))
	return nil
}

// upsert rewrites an existing row with a freshly drawn bucket: the index
// entry moves and the cardinality statistics adjust inside the row's own
// transaction.
func (q *queryRun) upsert(w *kvWorker) error {
	id := q.record(w)
	row := []table.Value{
		table.Int64(int64(id)),
		table.Int64(int64(w.rng.Intn(q.spec.IdxSel))),
		table.String(q.tables.pad),
	}
	if err := q.tables.tableFor(id).Upsert(row); err != nil {
		return err
	}
	q.upserts.Add(1)
	return nil
}

// --- the index-lookup experiment ---

// IndexLookup measures what the secondary index buys on a selective
// query: one store, one table of rows rows, and two schema bindings of
// the same keyspace — one declaring by_bucket, one not — so the planner
// serves the identical bucket-equality query as an index scan on the
// first handle and a full table scan on the second (the run fails if it
// plans anything else). Returns one Result per mode ("index" then
// "fullscan"); throughput and the architectural metric both carry the
// gap, and table.planner.picks{plan=index|full} the plans taken.
func IndexLookup(engineName string, rows, queries int) ([]Result, error) {
	if rows <= 0 || queries <= 0 {
		return nil, fmt.Errorf("harness: IndexLookup needs positive rows and queries")
	}
	spec := KVSpec{Mix: "query", Records: rows}.withDefaults()
	m, _ := lookupMix(spec.Mix)
	be, err := openBackend(m.sizing(spec, RunConfig{}), engineName, RunConfig{})
	if err != nil {
		return nil, err
	}
	eng := be.served.Layout()[0].Engine
	indexed, err := openTables(spec, be.db)
	if err != nil {
		return nil, err
	}
	bare := tableSchema(0)
	bare.Indexes = nil
	full, err := table.New(be.db, bare, table.WithMetrics(indexed.reg))
	if err != nil {
		return nil, err
	}

	run := func(mode, wantPlan string, tbl *table.Table) (Result, error) {
		q := table.Query{Conds: []table.Cond{table.Eq("bucket", table.Int64(0))}}
		if plan, err := tbl.Explain(q); err != nil {
			return Result{}, err
		} else if !strings.HasPrefix(plan, wantPlan) {
			return Result{}, fmt.Errorf("harness: IndexLookup %s planned %q, want %s…", mode, plan, wantPlan)
		}
		// One untimed query first: the pass's code paths, and the lines its
		// plan reads, are warm before the clock starts.
		if _, err := tbl.Select(q); err != nil {
			return Result{}, err
		}
		before := accesses(eng.Snapshot())
		start := time.Now()
		for i := 0; i < queries; i++ {
			q.Conds[0] = table.Eq("bucket", table.Int64(int64(i%spec.IdxSel)))
			if rs, err := tbl.Select(q); err != nil {
				return Result{}, err
			} else if len(rs) == 0 {
				return Result{}, fmt.Errorf("harness: IndexLookup %s: bucket %d empty", mode, i%spec.IdxSel)
			}
		}
		res := Result{
			Workload: "index-lookup/" + mode,
			Engine:   eng.Name(),
			Threads:  1,
			Ops:      uint64(queries),
			Elapsed:  time.Since(start),
			Stats:    eng.Snapshot(),
		}
		res.Accesses = accesses(res.Stats) - before
		res.Throughput = float64(res.Ops) / res.Elapsed.Seconds()
		res.derive()
		return res, nil
	}
	idxRes, err := run("index", "index(by_bucket", indexed.tables[0])
	if err != nil {
		return nil, err
	}
	fullRes, err := run("fullscan", "scan(kv0)", full)
	if err != nil {
		return nil, err
	}
	for _, r := range []*Result{&idxRes, &fullRes} {
		r.Counters = map[string]int64{}
		indexed.counters(r.Counters)
	}
	return []Result{idxRes, fullRes}, be.validate()
}
