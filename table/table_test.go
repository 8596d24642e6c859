package table_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rhtm"
	"rhtm/index"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/store"
	"rhtm/table"
)

// newDB builds a sharded Local DB on a fresh System with the named
// engine.
func newDB(t testing.TB, engine string, arenaWords int) kv.DB {
	t.Helper()
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 18))
	var eng rhtm.Engine
	switch engine {
	case "RH1":
		eng = rhtm.NewRH1(s, rhtm.RH1Options{MixPercent: 100})
	case "TL2":
		eng = rhtm.NewTL2(s)
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	sh := store.NewSharded(s, 4, store.Options{ArenaWords: arenaWords})
	return kv.NewLocal(eng, sh)
}

// usersSchema is the shared test schema: pk id, a non-unique city index,
// and a unique email index.
func usersSchema() table.Schema {
	return table.Schema{
		Name: "users",
		Fields: []table.Field{
			{Name: "id", Type: table.TInt64},
			{Name: "city", Type: table.TString},
			{Name: "email", Type: table.TString},
			{Name: "age", Type: table.TInt64},
		},
		Key: []string{"id"},
		Indexes: []table.Index{
			{Name: "by_city", Fields: []string{"city"}},
			{Name: "by_email", Fields: []string{"email"}, Unique: true},
		},
	}
}

func user(id int64, city, email string, age int64) []table.Value {
	return []table.Value{table.Int64(id), table.String(city), table.String(email), table.Int64(age)}
}

func openUsers(t testing.TB, db kv.DB, reg *obs.Registry) *table.Table {
	t.Helper()
	var opts []table.Option
	if reg != nil {
		opts = append(opts, table.WithMetrics(reg))
	}
	tb, err := table.New(db, usersSchema(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestTableCRUDAndIndexes(t *testing.T) {
	db := newDB(t, "TL2", 1<<13)
	reg := obs.NewRegistry()
	tb := openUsers(t, db, reg)

	for i := int64(0); i < 20; i++ {
		city := fmt.Sprintf("city%d", i%4)
		if err := tb.Insert(user(i, city, fmt.Sprintf("u%d@x", i), 20+i%5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Insert(user(3, "x", "dup@x", 1)); !errors.Is(err, table.ErrDuplicateKey) {
		t.Fatalf("duplicate insert: %v, want ErrDuplicateKey", err)
	}

	row, err := tb.Get(table.Int64(7))
	if err != nil {
		t.Fatal(err)
	}
	if row[1].Text() != "city3" {
		t.Fatalf("Get(7) city = %v", row[1])
	}

	// Statistics: 20 rows, 4 distinct cities, 20 distinct emails.
	if n, _ := tb.RowCount(); n != 20 {
		t.Fatalf("RowCount = %d, want 20", n)
	}
	if c, _ := tb.Cardinality("by_city"); c != 4 {
		t.Fatalf("Cardinality(by_city) = %d, want 4", c)
	}
	if c, _ := tb.Cardinality("by_email"); c != 20 {
		t.Fatalf("Cardinality(by_email) = %d, want 20", c)
	}

	// Upsert moves the index entry and keeps cardinality exact.
	if err := tb.Upsert(user(7, "moved", "u7@x", 99)); err != nil {
		t.Fatal(err)
	}
	if c, _ := tb.Cardinality("by_city"); c != 5 {
		t.Fatalf("Cardinality(by_city) after move = %d, want 5", c)
	}

	// Delete removes row, entries, and stats.
	if err := tb.Delete(table.Int64(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Get(table.Int64(7)); !errors.Is(err, table.ErrRowNotFound) {
		t.Fatalf("Get deleted: %v", err)
	}
	if n, _ := tb.RowCount(); n != 19 {
		t.Fatalf("RowCount after delete = %d, want 19", n)
	}
	if c, _ := tb.Cardinality("by_city"); c != 4 {
		t.Fatalf("Cardinality(by_city) after delete = %d, want 4", c)
	}

	// Both indexes audit clean.
	for _, ix := range []string{"by_city", "by_email"} {
		diffs, err := tb.VerifyIndex(ix)
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 0 {
			t.Fatalf("VerifyIndex(%s): %d diffs: %+v", ix, len(diffs), diffs[0])
		}
	}

	// Metrics flow into the flat schema.
	flat := reg.Snapshot().Flatten()
	if flat["table.rows{table=users}"] != 19 {
		t.Errorf("table.rows gauge = %d, want 19", flat["table.rows{table=users}"])
	}
	if flat["index.entries{idx=users.by_city}"] != 19 {
		t.Errorf("index.entries{by_city} = %d, want 19", flat["index.entries{idx=users.by_city}"])
	}
	if flat["index.maintain.ops{idx=users.by_city,op=insert}"] == 0 {
		t.Error("no insert maintenance ops recorded")
	}
}

func TestUniqueViolationAtomic(t *testing.T) {
	db := newDB(t, "TL2", 1<<13)
	tb := openUsers(t, db, nil)
	if err := tb.Insert(user(1, "ams", "a@x", 30)); err != nil {
		t.Fatal(err)
	}
	// Same email, different pk: the insert must fail and leave nothing —
	// no row, no city entry, no stats drift.
	err := tb.Insert(user(2, "ber", "a@x", 40))
	if !errors.Is(err, index.ErrUniqueViolation) {
		t.Fatalf("duplicate email insert: %v, want ErrUniqueViolation", err)
	}
	if _, err := tb.Get(table.Int64(2)); !errors.Is(err, table.ErrRowNotFound) {
		t.Fatal("failed insert left the row behind")
	}
	if n, _ := tb.RowCount(); n != 1 {
		t.Fatalf("RowCount = %d, want 1", n)
	}
	if c, _ := tb.Cardinality("by_city"); c != 1 {
		t.Fatalf("Cardinality(by_city) = %d, want 1 (no turd from aborted insert)", c)
	}
	for _, ix := range []string{"by_city", "by_email"} {
		diffs, err := tb.VerifyIndex(ix)
		if err != nil || len(diffs) != 0 {
			t.Fatalf("VerifyIndex(%s) after aborted insert: %v %v", ix, diffs, err)
		}
	}
}

// TestPlannerPinnedPlans pins the planner's choices and EXPLAIN strings
// on a known statistics state.
func TestPlannerPinnedPlans(t *testing.T) {
	db := newDB(t, "TL2", 1<<14)
	tb := openUsers(t, db, nil)
	for i := int64(0); i < 100; i++ {
		city := fmt.Sprintf("c%02d", i%10)
		if err := tb.Insert(user(i, city, fmt.Sprintf("u%d@x", i), i%50)); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name    string
		q       table.Query
		explain string
	}{
		{
			"point get",
			table.Query{Conds: []table.Cond{table.Eq("id", table.Int64(5))}},
			`point(users) cost=1`,
		},
		{
			"selective index fetch",
			table.Query{Conds: []table.Cond{table.Eq("city", table.String("c03"))}},
			`index(by_city eq "c03") fetch cost=20`,
		},
		{
			"covering projection",
			table.Query{
				Conds:  []table.Cond{table.Eq("city", table.String("c03"))},
				Fields: []string{"id", "city"},
			},
			`index(by_city eq "c03") covering cost=10`,
		},
		{
			"full scan on unindexed field",
			table.Query{Conds: []table.Cond{table.Eq("age", table.Int64(3))}},
			`scan(users) filter(age=3) cost=100`,
		},
		{
			"order limit via index",
			table.Query{Order: "city", Limit: 5, Fields: []string{"id", "city"}},
			`index(by_city) covering order(city) limit(5 pushed) cost=5`,
		},
		{
			"limit behind a sort is not pushed",
			table.Query{Conds: []table.Cond{table.Eq("city", table.String("c03"))}, Order: "age", Limit: 3},
			`index(by_city eq "c03") fetch sort(age) limit(3) cost=30`,
		},
		{
			"full scan when filter residual",
			table.Query{
				Conds: []table.Cond{table.Eq("city", table.String("c03")), table.Ge("age", table.Int64(10))},
			},
			`index(by_city eq "c03") fetch filter(age>=10) cost=20`,
		},
	}
	for _, c := range cases {
		got, err := tb.Explain(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.explain {
			t.Errorf("%s:\n  got  %s\n  want %s", c.name, got, c.explain)
		}
	}
}

func TestSelectResults(t *testing.T) {
	db := newDB(t, "TL2", 1<<14)
	tb := openUsers(t, db, nil)
	for i := int64(0); i < 60; i++ {
		city := fmt.Sprintf("c%d", i%3)
		if err := tb.Insert(user(i, city, fmt.Sprintf("u%d@x", i), i)); err != nil {
			t.Fatal(err)
		}
	}

	// Index path and full-scan path must agree.
	q := table.Query{Conds: []table.Cond{table.Eq("city", table.String("c1"))}}
	viaIndex, err := tb.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaIndex) != 20 {
		t.Fatalf("index select: %d rows, want 20", len(viaIndex))
	}
	for _, r := range viaIndex {
		if r[1].Text() != "c1" {
			t.Fatalf("index select returned city %v", r[1])
		}
	}

	// Range + order + limit.
	rows, err := tb.Select(table.Query{
		Conds: []table.Cond{table.Between("age", table.Int64(10), table.Int64(20))},
		Order: "age", Limit: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("range select: %d rows, want 4", len(rows))
	}
	for i, r := range rows {
		if want := int64(10 + i); r[3].Int() != want {
			t.Fatalf("range select row %d age = %d, want %d", i, r[3].Int(), want)
		}
	}

	// Projection keeps field order.
	proj, err := tb.Select(table.Query{
		Conds:  []table.Cond{table.Eq("id", table.Int64(5))},
		Fields: []string{"email", "id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(proj) != 1 || proj[0][0].Text() != "u5@x" || proj[0][1].Int() != 5 {
		t.Fatalf("projection = %v", proj)
	}
}

// TestOnlineBackfill declares an index after the data exists, backfills
// it while writers keep mutating, and audits the result.
func TestOnlineBackfill(t *testing.T) {
	db := newDB(t, "TL2", 1<<14)
	// Open the same keyspace twice: old schema (no by_city) for the
	// pre-existing data, new schema (with it) for the migration.
	old, err := table.New(db, table.Schema{
		Name:   "users",
		Fields: usersSchema().Fields,
		Key:    []string{"id"},
		Indexes: []table.Index{
			{Name: "by_email", Fields: []string{"email"}, Unique: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if err := old.Insert(user(i, fmt.Sprintf("c%d", i%7), fmt.Sprintf("u%d@x", i), i)); err != nil {
			t.Fatal(err)
		}
	}

	// New schema: writers start maintaining by_city immediately.
	tb := openUsers(t, db, nil)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := i % 200
			switch i % 3 {
			case 0:
				if err := tb.Upsert(user(id, fmt.Sprintf("m%d", i%5), fmt.Sprintf("u%d@x", id), id)); err != nil {
					done <- err
					return
				}
			case 1:
				if err := tb.Delete(table.Int64(id)); err != nil && !errors.Is(err, table.ErrRowNotFound) {
					done <- err
					return
				}
			default:
				if err := tb.Upsert(user(id, fmt.Sprintf("c%d", id%7), fmt.Sprintf("u%d@x", id), id)); err != nil {
					done <- err
					return
				}
			}
			time.Sleep(time.Millisecond / 4)
		}
	}()

	stats, err := tb.BuildIndex("by_city", 32)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches < 2 {
		t.Fatalf("backfill ran in %d batches, want bounded slices", stats.Batches)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	diffs, err := tb.VerifyIndex("by_city")
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("backfilled index has %d diffs: %+v", len(diffs), diffs[0])
	}
}
