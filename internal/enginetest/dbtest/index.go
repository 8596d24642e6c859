package dbtest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rhtm/index"
	"rhtm/table"
)

// The DBIndex section exercises the record layer over the DB under test:
// secondary-index maintenance inside concurrent closures (diffed against a
// map oracle and audited both directions by index.Verify), unique-violation
// atomicity, and online backfill racing live writers. It runs against the
// same factories as every other section, so the battery covers Local, the
// 2PC cluster, and the network client with one body.

// idxSchema is the section's table: integer primary key, a low-cardinality
// category (shared across workers — the cardinality probes contend), and a
// per-row unique tag.
func idxSchema(withCat bool) table.Schema {
	s := table.Schema{
		Name: "items",
		Fields: []table.Field{
			{Name: "id", Type: table.TInt64},
			{Name: "cat", Type: table.TString},
			{Name: "tag", Type: table.TString},
			{Name: "n", Type: table.TInt64},
		},
		Key: []string{"id"},
		Indexes: []table.Index{
			{Name: "by_tag", Fields: []string{"tag"}, Unique: true},
		},
	}
	if withCat {
		s.Indexes = append(s.Indexes, table.Index{Name: "by_cat", Fields: []string{"cat"}})
	}
	return s
}

func itemRow(id int64, cat string, n int64) []table.Value {
	return []table.Value{
		table.Int64(id), table.String(cat),
		table.String(fmt.Sprintf("tag-%d", id)), table.Int64(n),
	}
}

// verifyClean fails the test when the named index disagrees with the base
// rows in either direction.
func verifyClean(t *testing.T, tbl *table.Table, name string) {
	t.Helper()
	diffs, err := tbl.VerifyIndex(name)
	if err != nil {
		t.Fatalf("VerifyIndex(%s): %v", name, err)
	}
	for _, d := range diffs {
		t.Errorf("index %s: %s: key %x", name, d.Reason, d.Key)
	}
}

func testDBIndex(t *testing.T, factory DBFactory) {
	t.Run("ConcurrentCRUD", func(t *testing.T) { testDBIndexConcurrentCRUD(t, factory) })
	t.Run("UniqueAtomic", func(t *testing.T) { testDBIndexUniqueAtomic(t, factory) })
	t.Run("OnlineBackfill", func(t *testing.T) { testDBIndexOnlineBackfill(t, factory) })
	t.Run("ReadSkew", func(t *testing.T) { testDBIndexReadSkew(t, factory) })
}

// testDBIndexConcurrentCRUD runs striped concurrent insert/upsert/delete
// workers (each owning a private primary-key stripe, all sharing one small
// category pool, so index pages and statistics shards contend) and then
// diffs: every row against the per-worker oracles, both indexes against the
// base rows, statistics against ground truth, and an index-served Select
// against an oracle filter.
func testDBIndexConcurrentCRUD(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	tbl, err := table.New(db, idxSchema(true))
	if err != nil {
		t.Fatal(err)
	}
	cats := []string{"c0", "c1", "c2", "c3"}

	const workers, ops, stripe = 3, 24, 10
	oracles := make([]map[int64][]table.Value, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		oracles[w] = map[int64][]table.Value{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			oracle := oracles[w]
			for op := 0; op < ops; op++ {
				id := int64(w*1000 + rng.Intn(stripe))
				row := itemRow(id, cats[rng.Intn(len(cats))], int64(op))
				switch rng.Intn(3) {
				case 0:
					err := tbl.Insert(row)
					if _, exists := oracle[id]; exists {
						if !errors.Is(err, table.ErrDuplicateKey) {
							t.Errorf("worker %d: Insert(dup %d) err=%v", w, id, err)
						}
					} else if err != nil {
						t.Errorf("worker %d: Insert(%d): %v", w, id, err)
					} else {
						oracle[id] = row
					}
				case 1:
					if err := tbl.Upsert(row); err != nil {
						t.Errorf("worker %d: Upsert(%d): %v", w, id, err)
					} else {
						oracle[id] = row
					}
				default:
					err := tbl.Delete(table.Int64(id))
					if _, exists := oracle[id]; exists {
						if err != nil {
							t.Errorf("worker %d: Delete(%d): %v", w, id, err)
						}
						delete(oracle, id)
					} else if !errors.Is(err, table.ErrRowNotFound) {
						t.Errorf("worker %d: Delete(absent %d) err=%v", w, id, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := validate(); err != nil {
		t.Fatal(err)
	}

	// Base rows against the oracles (stripes are disjoint, so the union is
	// exact), then both indexes against the base rows.
	var total int64
	distinct := map[string]bool{}
	byCat := map[string]map[int64]bool{}
	for w := 0; w < workers; w++ {
		for id := int64(w * 1000); id < int64(w*1000+stripe); id++ {
			want, ok := oracles[w][id]
			got, err := tbl.Get(table.Int64(id))
			if !ok {
				if !errors.Is(err, table.ErrRowNotFound) {
					t.Errorf("Get(absent %d) err=%v", id, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("Get(%d): %v", id, err)
			}
			total++
			cat := want[1].Text()
			distinct[cat] = true
			if byCat[cat] == nil {
				byCat[cat] = map[int64]bool{}
			}
			byCat[cat][id] = true
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Errorf("row %d field %d = %v, want %v", id, i, got[i], want[i])
				}
			}
		}
	}
	verifyClean(t, tbl, "by_cat")
	verifyClean(t, tbl, "by_tag")

	if rows, err := tbl.RowCount(); err != nil || rows != total {
		t.Errorf("RowCount = %d (err %v), oracle %d", rows, err, total)
	}
	if card, err := tbl.Cardinality("by_cat"); err != nil || card != int64(len(distinct)) {
		t.Errorf("Cardinality(by_cat) = %d (err %v), oracle %d", card, err, len(distinct))
	}
	if card, err := tbl.Cardinality("by_tag"); err != nil || card != total {
		t.Errorf("Cardinality(by_tag) = %d (err %v), oracle %d", card, err, total)
	}

	// An index-served query must agree with the oracle filter.
	for _, cat := range cats {
		rows, err := tbl.Select(table.Query{Conds: []table.Cond{table.Eq("cat", table.String(cat))}})
		if err != nil {
			t.Fatalf("Select(cat=%s): %v", cat, err)
		}
		if len(rows) != len(byCat[cat]) {
			t.Errorf("Select(cat=%s) yielded %d rows, oracle %d", cat, len(rows), len(byCat[cat]))
		}
		for _, r := range rows {
			if !byCat[cat][r[0].Int()] {
				t.Errorf("Select(cat=%s) yielded unexpected row %v", cat, r[0].Int())
			}
		}
		// The same query with a limit bounds the backend's scan itself
		// (the limit travels in the cluster's snapshot scan and the wire's
		// Scan frame): it must yield the first rows of the unbounded answer.
		if len(rows) < 2 {
			continue
		}
		limit := len(rows) / 2
		head, err := tbl.Select(table.Query{Conds: []table.Cond{table.Eq("cat", table.String(cat))}, Limit: limit})
		if err != nil {
			t.Fatalf("Select(cat=%s, limit %d): %v", cat, limit, err)
		}
		if len(head) != limit {
			t.Fatalf("Select(cat=%s, limit %d) yielded %d rows", cat, limit, len(head))
		}
		for i, r := range head {
			if r[0].Int() != rows[i][0].Int() {
				t.Errorf("Select(cat=%s, limit %d) row %d is id %d, the unbounded answer has %d",
					cat, limit, i, r[0].Int(), rows[i][0].Int())
			}
		}
	}
}

// testDBIndexUniqueAtomic checks that a refused unique insert leaves no
// trace — no row, no index entries, no statistics drift — sequentially and
// under a concurrent race to one tag where exactly one writer may win.
func testDBIndexUniqueAtomic(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	tbl, err := table.New(db, idxSchema(true))
	if err != nil {
		t.Fatal(err)
	}
	dup := func(id int64, tag string) []table.Value {
		return []table.Value{table.Int64(id), table.String("c0"), table.String(tag), table.Int64(0)}
	}
	if err := tbl.Insert(dup(1, "shared")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(dup(2, "shared")); !errors.Is(err, index.ErrUniqueViolation) {
		t.Fatalf("duplicate tag insert err=%v, want ErrUniqueViolation", err)
	}
	if _, err := tbl.Get(table.Int64(2)); !errors.Is(err, table.ErrRowNotFound) {
		t.Errorf("refused insert left a row: err=%v", err)
	}
	if rows, err := tbl.RowCount(); err != nil || rows != 1 {
		t.Errorf("RowCount after refusal = %d (err %v), want 1", rows, err)
	}
	if card, err := tbl.Cardinality("by_tag"); err != nil || card != 1 {
		t.Errorf("Cardinality after refusal = %d (err %v), want 1", card, err)
	}

	// The race: several writers, one tag, exactly one winner.
	const racers = 4
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = tbl.Insert(dup(int64(10+i), "contested"))
		}()
	}
	wg.Wait()
	if err := validate(); err != nil {
		t.Fatal(err)
	}
	wins := 0
	for i, err := range errs {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, index.ErrUniqueViolation):
		default:
			t.Errorf("racer %d: unexpected error %v", i, err)
		}
	}
	if wins != 1 {
		t.Errorf("%d racers won the unique insert, want exactly 1", wins)
	}
	if rows, err := tbl.RowCount(); err != nil || rows != 2 {
		t.Errorf("RowCount after race = %d (err %v), want 2", rows, err)
	}
	verifyClean(t, tbl, "by_tag")
	verifyClean(t, tbl, "by_cat")
}

// testDBIndexReadSkew races upserters that move rows between categories
// against index-served range and order-limit Selects. A Select reads its
// entries and rows from one snapshot, so every row it returns satisfies
// every condition, rows come back in index order, and an order-limit query
// over a table that never shrinks returns exactly its limit. A row fetched
// after a writer moved it would break the first; an entry whose row
// vanished between two reads would break the last.
func testDBIndexReadSkew(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	tbl, err := table.New(db, idxSchema(true))
	if err != nil {
		t.Fatal(err)
	}
	const rows, cats = 32, 8
	cat := func(i int) string { return fmt.Sprintf("c%d", i) }
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(itemRow(int64(i), cat(i%cats), 0)); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := table.String(cat(2)), table.String(cat(5))
	queries := []table.Query{
		{Conds: []table.Cond{table.Between("cat", lo, hi)}},
		{Conds: []table.Cond{table.Between("cat", lo, hi)}, Order: "cat", Limit: 3},
		{Order: "cat", Limit: 5},
	}
	for _, q := range queries {
		p, err := tbl.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind != table.PlanIndex {
			t.Fatalf("planned %s, want an index fetch", p.Explain())
		}
	}

	const upserters, upserts = 2, 30
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < upserters; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for op := 0; op < upserts; op++ {
				id := int64(rng.Intn(rows))
				if err := tbl.Upsert(itemRow(id, cat(rng.Intn(cats)), int64(op))); err != nil {
					t.Errorf("upserter %d: Upsert(%d): %v", w, id, err)
					return
				}
			}
		}()
	}
	for r, q := range queries {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					if n > 0 {
						return
					}
				default:
				}
				got, err := tbl.Select(q)
				if err != nil {
					t.Errorf("reader %d: Select: %v", r, err)
					return
				}
				if len(q.Conds) == 0 && len(got) != q.Limit {
					t.Errorf("reader %d: order-limit Select returned %d rows, want %d", r, len(got), q.Limit)
				}
				for i, row := range got {
					if row[2].Text() != fmt.Sprintf("tag-%d", row[0].Int()) {
						t.Errorf("reader %d: row %v is not a row the writers wrote", r, row)
					}
					c := row[1]
					if len(q.Conds) > 0 && (c.Compare(lo) < 0 || c.Compare(hi) >= 0) {
						t.Errorf("reader %d: row %d has cat %s, outside [%s,%s)", r, row[0].Int(), c, lo, hi)
					}
					if i > 0 {
						prev := got[i-1]
						if d := prev[1].Compare(c); d > 0 || (d == 0 && prev[0].Int() >= row[0].Int()) {
							t.Errorf("reader %d: row (%s, %d) after (%s, %d): not in index order",
								r, c, row[0].Int(), prev[1], prev[0].Int())
						}
					}
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if err := validate(); err != nil {
		t.Fatal(err)
	}
	verifyClean(t, tbl, "by_cat")
}

// testDBIndexOnlineBackfill seeds rows through a schema without the
// category index, then backfills it in bounded slices while a live writer
// keeps mutating rows through the indexed schema, and audits the result.
func testDBIndexOnlineBackfill(t *testing.T, factory DBFactory) {
	db, _, validate := factory(t)
	old, err := table.New(db, idxSchema(false))
	if err != nil {
		t.Fatal(err)
	}
	const seeded = 40
	for i := 0; i < seeded; i++ {
		if err := old.Insert(itemRow(int64(i), fmt.Sprintf("c%d", i%5), int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	tbl, err := table.New(db, idxSchema(true))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := int64(rng.Intn(seeded))
			if i%4 == 3 {
				if err := tbl.Delete(table.Int64(id)); err != nil && !errors.Is(err, table.ErrRowNotFound) {
					t.Errorf("writer: Delete(%d): %v", id, err)
				}
			} else if err := tbl.Upsert(itemRow(id, fmt.Sprintf("c%d", rng.Intn(5)), int64(i))); err != nil {
				t.Errorf("writer: Upsert(%d): %v", id, err)
			}
		}
	}()
	stats, err := tbl.BuildIndex("by_cat", 8)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if stats.Batches < 2 {
		t.Errorf("backfill ran %d batch(es), want bounded slices (>= 2)", stats.Batches)
	}
	if err := validate(); err != nil {
		t.Fatal(err)
	}
	verifyClean(t, tbl, "by_cat")
	verifyClean(t, tbl, "by_tag")

	// The backfilled index must serve queries that agree with a ground-truth
	// pass over the base rows.
	want := map[string]int{}
	for i := 0; i < seeded; i++ {
		row, err := tbl.Get(table.Int64(int64(i)))
		if errors.Is(err, table.ErrRowNotFound) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want[row[1].Text()]++
	}
	for c := 0; c < 5; c++ {
		cat := fmt.Sprintf("c%d", c)
		rows, err := tbl.Select(table.Query{Conds: []table.Cond{table.Eq("cat", table.String(cat))}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != want[cat] {
			t.Errorf("Select(cat=%s) yielded %d rows, ground truth %d", cat, len(rows), want[cat])
		}
	}
}
