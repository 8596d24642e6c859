package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rhtm/obs"
	"rhtm/table"
)

// table-query: the planner mix over one indexed table on in-process
// kv.Local. The record layer does most of the work — statistics scans,
// index maintenance, row codec — and the raw Get under it almost none.

const (
	tqPoint = iota
	tqRange
	tqOrder
	tqUpsert
)

var tableQuery = workload{
	name: "table-query",
	why: "planner mix 60% point, 20% index range, 10% covering order-limit, 10% upsert on table+index over in-process " +
		"kv.Local, 1,000 rows x 100 buckets: the record layer does the work; kv-a is the control",
	kinds:   []string{"table.point", "table.range", "table.order", "table.upsert"},
	callers: 1,
	inproc:  true,
	counted: 1_200,
	rate:    100_000,
	segment: time.Second,
	build:   buildTableQuery,
}

const (
	tableBuckets = 100
	tableScanMax = 100 // query limits are drawn from [1, tableScanMax]
	tableIndex   = "by_bucket"
)

type tableStack struct {
	*localRig
	dbd      *dbDecor
	reg      *obs.Registry
	tbl      *table.Table
	pad      string
	bucket   []int64 // oracle: each row's current bucket
	returned uint64  // rows the Selects yielded
}

func buildTableQuery(e *env) (stack, error) {
	rows := e.scaled(1_000)
	// A row costs more than a raw record: prefixed row and index keys,
	// codec overhead, statistics shards.
	r, err := newLocalRig(e, rows*3+64, valueBytes+64)
	if err != nil {
		return nil, err
	}
	r.open(nil)
	st := &tableStack{localRig: r, dbd: &dbDecor{servedDB: r.db, tr: e.tr}, reg: obs.NewRegistry(),
		pad: strings.Repeat("x", valueBytes), bucket: make([]int64, rows)}
	st.tbl, err = table.New(st.dbd, table.Schema{
		Name: "kv0",
		Fields: []table.Field{
			{Name: "id", Type: table.TInt64},
			{Name: "bucket", Type: table.TInt64},
			{Name: "pad", Type: table.TString},
		},
		Key:     []string{"id"},
		Indexes: []table.Index{{Name: tableIndex, Fields: []string{"bucket"}}},
	}, table.WithMetrics(st.reg))
	if err != nil {
		return nil, err
	}
	for i := range st.bucket {
		st.bucket[i] = int64(i % tableBuckets)
		if err := st.tbl.Insert(st.row(i)); err != nil {
			return nil, fmt.Errorf("table populate: %w", err)
		}
	}
	return st, nil
}

func (st *tableStack) row(id int) []table.Value {
	return []table.Value{table.Int64(int64(id)), table.Int64(st.bucket[id]), table.String(st.pad)}
}

func (st *tableStack) caller(i int, _ bool) caller {
	return &tableCaller{st: st, rng: callerRNG(st.e.seed, i)}
}

func (st *tableStack) ledger() ledger {
	l := ledger{}
	st.engineLedger(l)
	for k, v := range st.reg.Snapshot().Flatten() {
		l[k] = v // table.*, index.*
	}
	l["kv.calls"] = int64(st.dbd.calls.Load())
	l["table.returned"] = int64(st.returned)
	return l
}

func (st *tableStack) probe() (uint64, uint64) {
	return accesses(st.eng.Snapshot()), st.dbd.calls.Load()
}

func (st *tableStack) settle() error { return nil }
func (st *tableStack) close()        {}

// check: every row reads back as the oracle has it, and the index agrees
// with the rows in both directions.
func (st *tableStack) check() error {
	for id := range st.bucket {
		got, err := st.tbl.Get(table.Int64(int64(id)))
		if err != nil {
			return fmt.Errorf("table-query: row %d: %w", id, err)
		}
		if err := st.matches(got, id, true); err != nil {
			return err
		}
	}
	diffs, err := st.tbl.VerifyIndex(tableIndex)
	if err != nil {
		return err
	}
	if len(diffs) > 0 {
		return fmt.Errorf("table-query: index disagrees with the rows in %d places, first: %+v", len(diffs), diffs[0])
	}
	return st.sh.Validate()
}

// matches checks a returned row (id, bucket[, pad]) against the oracle.
func (st *tableStack) matches(row []table.Value, id int, full bool) error {
	want := 2
	if full {
		want = 3
	}
	if id < 0 || id >= len(st.bucket) {
		return fmt.Errorf("table-query: a row came back with id %d", id)
	}
	if len(row) != want || row[0].Int() != int64(id) || row[1].Int() != st.bucket[id] ||
		(full && row[2].Text() != st.pad) {
		return fmt.Errorf("table-query: row %d came back as %v, oracle bucket %d", id, row, st.bucket[id])
	}
	return nil
}

type tableCaller struct {
	st    *tableStack
	rng   *rand.Rand
	block [len(tableMix)]uint8
	pos   int
	// strata are the block's remaining limit strata per kind: a block's
	// range and order-limit queries each take their limits from distinct
	// equal slices of [1, tableScanMax], so every block asks for about the
	// same number of rows.
	strata [2][]int
}

// tableMix is one block of the planner mix: 60% point, 20% range, 10%
// order-limit, 10% upsert. The kinds differ a hundredfold in cost and a
// segment holds only a few hundred operations, so independent draws would
// let a segment's composition, not the program, set its throughput; each
// block of twenty is instead a fresh shuffle of exactly this multiset.
// Point queries are the majority so that the median latency lies inside
// one kind's distribution: at the harness's 45% it sat on the cliff between
// the slowest point queries and the fastest upserts, and read 200 µs or
// 290 µs as the host's mood took it.
var tableMix = [20]uint8{
	tqPoint, tqPoint, tqPoint, tqPoint, tqPoint, tqPoint, tqPoint, tqPoint, tqPoint, tqPoint, tqPoint, tqPoint,
	tqRange, tqRange, tqRange, tqRange,
	tqOrder, tqOrder,
	tqUpsert, tqUpsert,
}

func (c *tableCaller) next() op {
	if c.pos == 0 {
		c.block = tableMix
		c.rng.Shuffle(len(c.block), func(i, j int) { c.block[i], c.block[j] = c.block[j], c.block[i] })
		c.strata = [2][]int{c.rng.Perm(4), c.rng.Perm(2)} // 4 range, 2 order-limit per block
	}
	kind := c.block[c.pos]
	c.pos = (c.pos + 1) % len(c.block)
	rows := len(c.st.bucket)
	limit := func(k int) int {
		s := &c.strata[k]
		width := tableScanMax / cap(*s)
		stratum := (*s)[0]
		*s = (*s)[1:]
		return 1 + stratum*width + c.rng.Intn(width)
	}
	switch kind {
	case tqPoint:
		return op{kind: tqPoint, rec: c.rng.Intn(rows)}
	case tqRange:
		return op{kind: tqRange, rec: c.rng.Intn(tableBuckets), rec2: 1 + c.rng.Intn(4), n: limit(0)}
	case tqOrder:
		return op{kind: tqOrder, n: limit(1)}
	default:
		return op{kind: tqUpsert, rec: c.rng.Intn(rows), n: c.rng.Intn(tableBuckets)}
	}
}

func (c *tableCaller) do(o op) error {
	st := c.st
	switch o.kind {
	case tqUpsert:
		// The index entry moves and the cardinality statistics adjust
		// inside the row's own transaction.
		old := st.bucket[o.rec]
		st.bucket[o.rec] = int64(o.n)
		if err := st.tbl.Upsert(st.row(o.rec)); err != nil {
			st.bucket[o.rec] = old
			return err
		}
		return nil
	case tqPoint:
		// The filter pins the primary key: the plan is the point get.
		rows, err := st.tbl.Select(table.Query{Conds: []table.Cond{table.Eq("id", table.Int64(int64(o.rec)))}})
		if err != nil {
			return err
		}
		if len(rows) != 1 {
			return fmt.Errorf("table-query: point id=%d yielded %d rows", o.rec, len(rows))
		}
		st.returned++
		return st.matches(rows[0], o.rec, true)
	}
	q := table.Query{Order: "bucket", Limit: o.n}
	lo, hi := int64(0), int64(tableBuckets)
	if o.kind == tqRange {
		// Served from the index, the limit bounding the scan, with a base
		// row fetch per entry.
		lo, hi = int64(o.rec), int64(o.rec+o.rec2)
		q.Conds = []table.Cond{table.Between("bucket", table.Int64(lo), table.Int64(hi))}
	} else {
		// Covering: the projection is what the index entries carry, so no
		// base rows are fetched.
		q.Fields = []string{"id", "bucket"}
	}
	rows, err := st.tbl.Select(q)
	if err != nil {
		return err
	}
	if len(rows) > o.n || (o.kind == tqOrder && len(rows) == 0) {
		return fmt.Errorf("table-query: %d rows for limit %d", len(rows), o.n)
	}
	prev := lo
	for _, row := range rows {
		b := row[1].Int()
		if b < prev || b >= hi {
			return fmt.Errorf("table-query: bucket %d out of order or range [%d,%d)", b, lo, hi)
		}
		prev = b
		if err := st.matches(row, int(row[0].Int()), o.kind == tqRange); err != nil {
			return err
		}
	}
	st.returned += uint64(len(rows))
	return nil
}
