package table_test

import (
	"bytes"
	"fmt"
	"testing"

	"rhtm/kv"
	"rhtm/table"
)

// countingDB is a kv.DB double in front of a real one: it counts every data
// call and records the start and limit of every Scan, whether the table
// issues it on the DB or on the transaction an Update hands its closure
// (countingTx). onGet, when set, runs before a Get on either is served —
// the hook a test uses to commit a concurrent writer between an entry scan
// and the row fetch it leads to.
type countingDB struct {
	kv.DB
	calls      int
	updates    int
	scanStarts [][]byte
	scanLimits []int
	onGet      func(key []byte)
}

func (d *countingDB) scanned(start []byte, limit int) {
	d.scanStarts = append(d.scanStarts, bytes.Clone(start))
	d.scanLimits = append(d.scanLimits, limit)
}

func (d *countingDB) Scan(start, end []byte, limit int) kv.Iterator {
	d.calls++
	d.scanned(start, limit)
	return d.DB.Scan(start, end, limit)
}

func (d *countingDB) Update(fn func(tx kv.Txn) error) error {
	d.calls++
	d.updates++
	return d.DB.Update(func(tx kv.Txn) error { return fn(&countingTx{Txn: tx, db: d}) })
}

func (d *countingDB) Get(key []byte) ([]byte, error) {
	d.calls++
	if d.onGet != nil {
		d.onGet(key)
	}
	return d.DB.Get(key)
}

func (d *countingDB) GetRev(key []byte) ([]byte, kv.Revision, error) {
	d.calls++
	return d.DB.GetRev(key)
}

func (d *countingDB) Put(key, value []byte, opts ...kv.PutOption) error {
	d.calls++
	return d.DB.Put(key, value, opts...)
}

func (d *countingDB) PutIf(key, value []byte, rev kv.Revision, opts ...kv.PutOption) error {
	d.calls++
	return d.DB.PutIf(key, value, rev, opts...)
}

func (d *countingDB) Delete(key []byte) error {
	d.calls++
	return d.DB.Delete(key)
}

func (d *countingDB) DeleteIf(key []byte, rev kv.Revision) error {
	d.calls++
	return d.DB.DeleteIf(key, rev)
}

func (d *countingDB) Batch(ops []kv.Op) ([]kv.OpResult, error) {
	d.calls++
	return d.DB.Batch(ops)
}

var _ kv.Txn = (*countingTx)(nil)

// countingTx wraps the transaction countingDB.Update hands its closure: it
// records its scans on the DB double and runs the onGet hook.
type countingTx struct {
	kv.Txn
	db *countingDB
}

func (t *countingTx) Scan(start, end []byte, limit int) kv.Iterator {
	t.db.scanned(start, limit)
	return t.Txn.Scan(start, end, limit)
}

func (t *countingTx) Get(key []byte) ([]byte, error) {
	if t.db.onGet != nil {
		t.db.onGet(key)
	}
	return t.Txn.Get(key)
}

// openCounted loads 100 users (10 cities x 10, age = id % 50) through a
// counting double. The second handle binds the same schema to the DB behind
// the double: the concurrent writer the hooks run, unseen by the counts.
func openCounted(t *testing.T) (*countingDB, *table.Table, *table.Table) {
	t.Helper()
	db := &countingDB{DB: newDB(t, "TL2", 1<<14)}
	tb := openUsers(t, db, nil)
	for i := int64(0); i < 100; i++ {
		if err := tb.Insert(user(i, fmt.Sprintf("c%02d", i%10), fmt.Sprintf("u%d@x", i), i%50)); err != nil {
			t.Fatal(err)
		}
	}
	return db, tb, openUsers(t, db.DB, nil)
}

// TestLimitPushdown pins what the executor hands its kv scan: the query's
// limit exactly when the plan's scan order is the result order and nothing
// filters the entries, 0 whenever the plan sorts or filters. Planning reads
// the statistics with scans of its own, so the limits are recorded around
// Run alone.
func TestLimitPushdown(t *testing.T) {
	db, tb, _ := openCounted(t)
	cases := []struct {
		name  string
		q     table.Query
		plan  table.PlanKind
		limit int // what the plan's scan must receive
		rows  int
	}{
		{"covering order-limit", table.Query{Order: "city", Limit: 7, Fields: []string{"id", "city"}},
			table.PlanCovering, 7, 7},
		{"index fetch, equality and limit", table.Query{Conds: []table.Cond{table.Eq("city", table.String("c03"))}, Limit: 4},
			table.PlanIndex, 4, 4},
		{"index fetch, range in scan order", table.Query{
			Conds: []table.Cond{table.Between("city", table.String("c02"), table.String("c05"))}, Order: "city", Limit: 12},
			table.PlanIndex, 12, 12},
		{"full scan in key order", table.Query{Order: "id", Limit: 9}, table.PlanFull, 9, 9},
		{"full scan, no order", table.Query{Limit: 9}, table.PlanFull, 9, 9},
		{"index fetch that sorts", table.Query{Conds: []table.Cond{table.Eq("city", table.String("c03"))}, Order: "age", Limit: 3},
			table.PlanIndex, 0, 3},
		{"index fetch with a residual filter", table.Query{
			Conds: []table.Cond{table.Eq("city", table.String("c03")), table.Ge("age", table.Int64(10))}, Limit: 3},
			table.PlanIndex, 0, 3},
		{"full scan that filters", table.Query{Conds: []table.Cond{table.Eq("age", table.Int64(3))}, Order: "id", Limit: 1},
			table.PlanFull, 0, 1},
		{"no limit to push", table.Query{Conds: []table.Cond{table.Eq("city", table.String("c03"))}},
			table.PlanIndex, 0, 10},
	}
	for _, c := range cases {
		p, err := tb.Plan(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.Kind != c.plan {
			t.Errorf("%s: plan %s (%s), want %s", c.name, p.Kind, p.Explain(), c.plan)
		}
		db.scanLimits = nil
		rows, err := p.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rows) != c.rows {
			t.Errorf("%s: %d rows, want %d", c.name, len(rows), c.rows)
		}
		if len(db.scanLimits) != 1 || db.scanLimits[0] != c.limit {
			t.Errorf("%s: Scan received limits %v, want [%d] (%s)", c.name, db.scanLimits, c.limit, p.Explain())
		}
	}
}

// TestSelectOneSnapshot pins what a Select costs the DB: two kv.DB calls
// for every plan kind — the row-count scan and one read of one snapshot,
// a closure transaction only for an index fetch — and a cardinality scan
// only when an equality prefix puts it in a cost.
func TestSelectOneSnapshot(t *testing.T) {
	db, tb, _ := openCounted(t)
	cases := []struct {
		name     string
		q        table.Query
		plan     table.PlanKind
		readCard bool
	}{
		{"point", table.Query{Conds: []table.Cond{table.Eq("id", table.Int64(5))}}, table.PlanPoint, false},
		{"equality fetch", table.Query{Conds: []table.Cond{table.Eq("city", table.String("c03"))}}, table.PlanIndex, true},
		{"range fetch", table.Query{Conds: []table.Cond{table.Between("city", table.String("c02"), table.String("c05"))}},
			table.PlanIndex, false},
		{"covering order-limit", table.Query{Order: "city", Limit: 7, Fields: []string{"id", "city"}},
			table.PlanCovering, false},
		{"full scan", table.Query{Conds: []table.Cond{table.Eq("age", table.Int64(3))}}, table.PlanFull, false},
	}
	for _, c := range cases {
		db.calls, db.updates, db.scanStarts = 0, 0, nil
		p, err := tb.Plan(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.Kind != c.plan {
			t.Errorf("%s: plan %s (%s), want %s", c.name, p.Kind, p.Explain(), c.plan)
		}
		if _, err := p.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := 2
		if c.readCard {
			want++
		}
		if db.calls != want {
			t.Errorf("%s: %d kv.DB calls, want %d (%s)", c.name, db.calls, want, p.Explain())
		}
		wantUpdates := 0
		if c.plan == table.PlanIndex {
			wantUpdates = 1
		}
		if db.updates != wantUpdates {
			t.Errorf("%s: %d Update calls, want %d (%s)", c.name, db.updates, wantUpdates, p.Explain())
		}
		readCard := false
		for _, s := range db.scanStarts {
			readCard = readCard || bytes.Contains(s, []byte("card."))
		}
		if readCard != c.readCard {
			t.Errorf("%s: read a card. shard = %v, want %v (%s)", c.name, readCard, c.readCard, p.Explain())
		}
	}
}

// TestSelectReadSkew moves a row out of the queried range while a fetch plan
// runs: the writer commits between the entry scan that found the row and the
// fetch of it. A Select reads one snapshot, so it must not return the row
// with the city the writer gave it — the read skew of Berenson et al., "A
// Critique of ANSI SQL Isolation Levels" (SIGMOD 1995).
func TestSelectReadSkew(t *testing.T) {
	db, tb, writer := openCounted(t)
	q := table.Query{Conds: []table.Cond{table.Between("city", table.String("c02"), table.String("c05"))}}
	p, err := tb.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != table.PlanIndex {
		t.Fatalf("planned %s, want an index fetch", p.Explain())
	}
	moved := false
	db.onGet = func([]byte) {
		if !moved {
			// Row 2 is the range's first entry (c02, 2).
			moved = true
			if err := writer.Upsert(user(2, "c09", "u2@x", 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows, err := tb.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("the plan fetched no row")
	}
	for _, r := range rows {
		if city := r[1].Text(); city < "c02" || city >= "c05" {
			t.Errorf("Select(city in [c02,c05)) returned row %d with city %s", r[0].Int(), city)
		}
	}
	if len(rows) != 29 {
		t.Errorf("Select(city in [c02,c05)) returned %d rows, want 29 after row 2 moved out", len(rows))
	}
}

// TestLimitPushdownRowVanishes: a writer deletes the row under the first
// fetched entry — row and entry in one transaction — while the Select's read
// transaction runs. The Select re-runs on the new snapshot and still returns
// Limit rows, in order, from one bounded scan per attempt.
func TestLimitPushdownRowVanishes(t *testing.T) {
	db, tb, writer := openCounted(t)
	q := table.Query{Conds: []table.Cond{table.Eq("city", table.String("c03"))}, Limit: 4}
	// c03 holds ids 3, 13, ..., 93 in primary-key order.
	deleted := false
	db.onGet = func([]byte) {
		if !deleted {
			deleted = true
			if err := writer.Delete(table.Int64(3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.calls, db.scanLimits = 0, nil
	rows, err := tb.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if !deleted {
		t.Fatal("the plan fetched no row")
	}
	var ids []int64
	for _, r := range rows {
		ids = append(ids, r[0].Int())
	}
	if want := []int64{13, 23, 33, 43}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("Select(Limit: 4) with the first row deleted = %v, want %v", ids, want)
	}
	// Two statistics scans, then one Update whose bounded scan ran twice:
	// in the attempt the delete invalidated and in its re-run.
	if want := []int{0, 0, 4, 4}; fmt.Sprint(db.scanLimits) != fmt.Sprint(want) || db.calls != 3 {
		t.Errorf("Scan limits %v over %d kv.DB calls, want %v over 3", db.scanLimits, db.calls, want)
	}

	// When the range is exhausted the scan comes back short.
	db.onGet, db.scanLimits = nil, nil
	if rows, err = tb.Select(table.Query{Conds: q.Conds, Limit: 10}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows of city c03 after one was deleted, want 9", len(rows))
	}
	if want := []int{0, 0, 10}; fmt.Sprint(db.scanLimits) != fmt.Sprint(want) {
		t.Errorf("Scan limits %v, want %v", db.scanLimits, want)
	}
}
