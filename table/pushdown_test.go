package table_test

import (
	"bytes"
	"fmt"
	"testing"

	"rhtm/kv"
	"rhtm/table"
)

// countingDB is a kv.DB double in front of a real one: it records the limit
// of every Scan and counts Gets, and onGet, when set, runs before a Get is
// served — the hook a test uses to change the data between an entry scan and
// the row fetch it leads to.
type countingDB struct {
	kv.DB
	scanLimits []int
	getCalls   int
	onGet      func(key []byte)
}

func (d *countingDB) Scan(start, end []byte, limit int) kv.Iterator {
	d.scanLimits = append(d.scanLimits, limit)
	return d.DB.Scan(start, end, limit)
}

func (d *countingDB) Get(key []byte) ([]byte, error) {
	d.getCalls++
	if d.onGet != nil {
		d.onGet(key)
	}
	return d.DB.Get(key)
}

// openCounted loads 100 users (10 cities x 10, age = id % 50) through a
// counting double.
func openCounted(t *testing.T) (*countingDB, *table.Table) {
	t.Helper()
	db := &countingDB{DB: newDB(t, "TL2", 1<<14)}
	tb := openUsers(t, db, nil)
	for i := int64(0); i < 100; i++ {
		if err := tb.Insert(user(i, fmt.Sprintf("c%02d", i%10), fmt.Sprintf("u%d@x", i), i%50)); err != nil {
			t.Fatal(err)
		}
	}
	return db, tb
}

// TestLimitPushdown pins what the executor hands kv.DB.Scan: the query's
// limit exactly when the plan's scan order is the result order and nothing
// filters the entries, 0 whenever the plan sorts or filters. Planning reads
// the statistics with scans of its own, so the limits are recorded around
// Run alone.
func TestLimitPushdown(t *testing.T) {
	db, tb := openCounted(t)
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

// TestLimitPushdownRowVanishes: an index entry whose base row is deleted
// between the entry scan and the fetch yields no row. With the scan itself
// bounded by the limit, the executor must go back for the shortfall rather
// than return fewer than Limit rows while more matching entries exist.
func TestLimitPushdownRowVanishes(t *testing.T) {
	db, tb := openCounted(t)
	q := table.Query{Conds: []table.Cond{table.Eq("city", table.String("c03"))}, Limit: 4}
	// c03 holds ids 3, 13, ..., 93 in primary-key order.
	var vanished []byte
	db.onGet = func(key []byte) {
		if vanished == nil {
			// Delete only the row: the entry the scan already yielded stays
			// behind, exactly what a concurrent writer's commit between the
			// two reads looks like to this Select.
			vanished = bytes.Clone(key)
			if err := db.DB.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows, err := tb.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if vanished == nil {
		t.Fatal("the plan fetched no row")
	}
	var ids []int64
	for _, r := range rows {
		ids = append(ids, r[0].Int())
	}
	if want := []int64{13, 23, 33, 43}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("Select(Limit: 4) with the first row vanished = %v, want %v", ids, want)
	}
	// Two statistics scans, the bounded scan, and one resume for the one
	// missing row.
	if want := []int{0, 0, 4, 1}; fmt.Sprint(db.scanLimits) != fmt.Sprint(want) {
		t.Errorf("Scan limits %v, want %v", db.scanLimits, want)
	}

	// When the range is exhausted there is nothing to resume for.
	db.onGet, db.scanLimits = nil, nil
	if rows, err = tb.Select(table.Query{Conds: q.Conds, Limit: 10}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows of city c03 after one vanished, want 9", len(rows))
	}
	if want := []int{0, 0, 10, 1}; fmt.Sprint(db.scanLimits) != fmt.Sprint(want) {
		t.Errorf("Scan limits %v, want %v", db.scanLimits, want)
	}
}
