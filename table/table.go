package table

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"rhtm/index"
	"rhtm/kv"
	"rhtm/obs"
)

// ErrDuplicateKey reports an Insert whose primary key already exists.
var ErrDuplicateKey = errors.New("table: row already exists")

// ErrRowNotFound reports a Get or Delete of an absent primary key.
// It aliases kv.ErrNotFound so errors.Is matches either layer.
var ErrRowNotFound = kv.ErrNotFound

// statShards spreads each statistics counter over this many keys so the
// counters don't become a serialization point under concurrent writers.
const statShards = 8

// Option configures a Table.
type Option func(*Table)

// WithMetrics instruments the table and its indexes in reg (see
// metrics.go and index.Metrics for the name schema).
func WithMetrics(reg *obs.Registry) Option {
	return func(t *Table) { t.reg = reg }
}

// runtimeIdx is one declared index resolved against the schema.
type runtimeIdx struct {
	decl     Index
	def      index.Def
	fieldPos []int // positions of decl.Fields in the schema
	card     stat  // distinct-value count
}

// Table binds a Schema to a kv.DB. All methods are safe for concurrent
// use; several Tables (in several processes, or over the network client)
// may bind the same schema to the same keyspace.
type Table struct {
	schema   Schema
	db       kv.DB
	reg      *obs.Registry
	fieldPos map[string]int
	keyPos   []int
	idxs     []runtimeIdx
	rowPfx   []byte // 'r' ‖ name ‖ 0x00
	statPfx  []byte // 's' ‖ name ‖ 0x00
	rows     stat   // row count
	met      *metrics
}

// New validates schema and binds it to db.
func New(db kv.DB, schema Schema, opts ...Option) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		schema:   schema,
		db:       db,
		fieldPos: make(map[string]int, len(schema.Fields)),
		rowPfx:   append(append([]byte{'r'}, schema.Name...), 0x00),
		statPfx:  append(append([]byte{'s'}, schema.Name...), 0x00),
	}
	t.rows = t.newStat("rows")
	for _, o := range opts {
		o(t)
	}
	for i, f := range schema.Fields {
		t.fieldPos[f.Name] = i
	}
	for _, k := range schema.Key {
		t.keyPos = append(t.keyPos, t.fieldPos[k])
	}
	if t.reg != nil {
		t.met = newMetrics(t.reg, schema.Name)
	}
	for _, ix := range schema.Indexes {
		ri := runtimeIdx{
			decl: ix,
			def: index.Def{
				ID:     indexID(schema.Name, ix.Name),
				Name:   schema.Name + "." + ix.Name,
				Unique: ix.Unique,
			},
			card: t.newStat("card." + ix.Name),
		}
		if t.reg != nil {
			ri.def.Metrics = index.NewMetrics(t.reg, ri.def.Name)
		}
		for _, f := range ix.Fields {
			ri.fieldPos = append(ri.fieldPos, t.fieldPos[f])
		}
		t.idxs = append(t.idxs, ri)
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// checkRow validates a full row against the schema's field types.
func (t *Table) checkRow(row []Value) error {
	if len(row) != len(t.schema.Fields) {
		return fmt.Errorf("table %s: row has %d values, schema has %d fields",
			t.schema.Name, len(row), len(t.schema.Fields))
	}
	for i, f := range t.schema.Fields {
		if row[i].Type() != f.Type {
			return fmt.Errorf("table %s: field %s wants %s, got %s",
				t.schema.Name, f.Name, f.Type, row[i].Type())
		}
	}
	return nil
}

// pkOf extracts a row's primary-key values in key order.
func (t *Table) pkOf(row []Value) []Value {
	pk := make([]Value, len(t.keyPos))
	for i, p := range t.keyPos {
		pk[i] = row[p]
	}
	return pk
}

// encodePK ordered-encodes primary-key values (already in key order).
func (t *Table) encodePK(pk []Value) ([]byte, error) {
	if len(pk) != len(t.keyPos) {
		return nil, fmt.Errorf("table %s: primary key has %d fields, got %d values",
			t.schema.Name, len(t.keyPos), len(pk))
	}
	for i, p := range t.keyPos {
		if pk[i].Type() != t.schema.Fields[p].Type {
			return nil, fmt.Errorf("table %s: key field %s wants %s, got %s",
				t.schema.Name, t.schema.Fields[p].Name, t.schema.Fields[p].Type, pk[i].Type())
		}
	}
	return AppendTuple(nil, pk...), nil
}

// rowKey composes the kv key of the row with encoded primary key encPK.
func (t *Table) rowKey(encPK []byte) []byte {
	return append(bytes.Clone(t.rowPfx), encPK...)
}

// rowRange is the kv range holding all of the table's rows.
func (t *Table) rowRange() (start, end []byte) {
	return bytes.Clone(t.rowPfx), index.PrefixSuccessor(t.rowPfx)
}

// idxVal ordered-encodes the indexed fields of row for ix.
func (ix *runtimeIdx) idxVal(row []Value) []byte {
	var v []byte
	for _, p := range ix.fieldPos {
		v = AppendOrdered(v, row[p])
	}
	return v
}

// decodeRow decodes a stored row value.
func (t *Table) decodeRow(v []byte) ([]Value, error) {
	return DecodeRow(v, len(t.schema.Fields))
}

// Insert writes a new row, failing with ErrDuplicateKey if the primary
// key exists. Row write, index maintenance, and statistics commit as one
// transaction.
func (t *Table) Insert(row []Value) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	encPK, err := t.encodePK(t.pkOf(row))
	if err != nil {
		return err
	}
	err = t.db.Update(func(tx kv.Txn) error {
		rev, err := tx.Revision(t.rowKey(encPK))
		if err != nil {
			return err
		}
		if rev != 0 {
			return fmt.Errorf("table %s: key %v: %w", t.schema.Name, t.pkOf(row), ErrDuplicateKey)
		}
		return t.writeTx(tx, nil, row, encPK)
	})
	if err != nil {
		return err
	}
	t.met.op(func(m *metrics) *obs.Counter { return m.inserts })
	t.met.rowsAdd(1)
	return nil
}

// Upsert writes a row, replacing any existing row with the same primary
// key (and moving its index entries).
func (t *Table) Upsert(row []Value) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	encPK, err := t.encodePK(t.pkOf(row))
	if err != nil {
		return err
	}
	var created bool
	err = t.db.Update(func(tx kv.Txn) error {
		created = false
		old, err := t.readTx(tx, encPK)
		if err != nil && !errors.Is(err, kv.ErrNotFound) {
			return err
		}
		created = old == nil
		return t.writeTx(tx, old, row, encPK)
	})
	if err != nil {
		return err
	}
	t.met.op(func(m *metrics) *obs.Counter { return m.upserts })
	if created {
		t.met.rowsAdd(1)
	}
	return nil
}

// Delete removes the row with the given primary key, returning
// ErrRowNotFound when absent.
func (t *Table) Delete(pk ...Value) error {
	encPK, err := t.encodePK(pk)
	if err != nil {
		return err
	}
	err = t.db.Update(func(tx kv.Txn) error {
		old, err := t.readTx(tx, encPK)
		if err != nil {
			return err
		}
		return t.writeTx(tx, old, nil, encPK)
	})
	if err != nil {
		return err
	}
	t.met.op(func(m *metrics) *obs.Counter { return m.deletes })
	t.met.rowsAdd(-1)
	return nil
}

// Get returns the row with the given primary key, or ErrRowNotFound.
func (t *Table) Get(pk ...Value) ([]Value, error) {
	encPK, err := t.encodePK(pk)
	if err != nil {
		return nil, err
	}
	v, err := t.db.Get(t.rowKey(encPK))
	if err != nil {
		return nil, err
	}
	t.met.op(func(m *metrics) *obs.Counter { return m.gets })
	return t.decodeRow(v)
}

// readTx reads and decodes the row with encoded key encPK inside tx,
// returning (nil, kv.ErrNotFound) when absent.
func (t *Table) readTx(tx kv.Txn, encPK []byte) ([]Value, error) {
	v, err := tx.Get(t.rowKey(encPK))
	if err != nil {
		return nil, err
	}
	return t.decodeRow(v)
}

// writeTx applies one row mutation inside tx: old == nil inserts, new ==
// nil deletes, both replaces. It writes the row, maintains every index
// via index.Map, and adjusts the row-count and per-index cardinality
// statistics — all in the caller's transaction, so the engine commits or
// aborts the whole set atomically.
func (t *Table) writeTx(tx kv.Txn, old, new []Value, encPK []byte) error {
	key := t.rowKey(encPK)
	switch {
	case new != nil:
		if err := tx.Put(key, AppendRow(nil, new)); err != nil {
			return err
		}
	case old != nil:
		if err := tx.Delete(key); err != nil {
			return err
		}
	default:
		return nil
	}
	for i := range t.idxs {
		ix := &t.idxs[i]
		var oldE, newE *index.Entry
		if old != nil {
			oldE = &index.Entry{Val: ix.idxVal(old), PK: encPK}
		}
		if new != nil {
			newE = &index.Entry{Val: ix.idxVal(new), PK: encPK}
		}
		if oldE != nil && newE != nil && bytes.Equal(oldE.Val, newE.Val) {
			continue // value unchanged: entry and cardinality both stay
		}
		// Cardinality: the insert creates a new distinct value iff no
		// entry with that value exists yet (the probe joins the read set,
		// so two concurrent "first" inserts of one value conflict instead
		// of double-counting).
		if newE != nil {
			first, err := t.valueAbsent(tx, ix.def, newE.Val)
			if err != nil {
				return err
			}
			if first {
				if err := t.statAdd(tx, ix.card.shard(newE.Val), 1); err != nil {
					return err
				}
			}
		}
		if err := index.Map(tx, ix.def, oldE, newE); err != nil {
			return err
		}
		// The delete retired a distinct value iff no entry with the old
		// value remains (the cursor observes the transaction's own
		// delete).
		if oldE != nil {
			gone, err := t.valueAbsent(tx, ix.def, oldE.Val)
			if err != nil {
				return err
			}
			if gone {
				if err := t.statAdd(tx, ix.card.shard(oldE.Val), -1); err != nil {
					return err
				}
			}
		}
	}
	switch {
	case old == nil && new != nil:
		return t.statAdd(tx, t.rows.shard(encPK), 1)
	case old != nil && new == nil:
		return t.statAdd(tx, t.rows.shard(encPK), -1)
	}
	return nil
}

// valueAbsent reports whether ix has no entry with encoded value val,
// observing tx's own writes.
func (t *Table) valueAbsent(tx kv.Txn, def index.Def, val []byte) (bool, error) {
	start, end := index.ValueRange(def, val)
	it := tx.Scan(start, end, 1)
	if it.Next() {
		return false, nil
	}
	return true, it.Err()
}

// Statistics: each counter is statShards kv records summed on read. The
// shard a transaction touches is chosen by hashing the row's key (row
// count) or the indexed value (cardinality), so concurrent writers to
// different rows rarely collide on a statistics record.

func statShard(b []byte) byte {
	h := fnv.New32a()
	h.Write(b)
	return byte(h.Sum32() % statShards)
}

// stat is one counter's keys, built once per Table: the shard records
// statPfx ‖ name ‖ 0x00 ‖ shard, and the bounds of the scan that sums them.
// Every slice is full to capacity, so callers share them read-only (kv
// copies what it keeps).
type stat struct {
	shards     [statShards][]byte
	start, end []byte
}

// newStat builds the keys of the counter called name ("rows", or "card."
// and an index name).
func (t *Table) newStat(name string) stat {
	pfx := append(bytes.Clone(t.statPfx), name...)
	pfx = append(pfx, 0x00)
	s := stat{start: slices.Clip(pfx), end: slices.Clip(index.PrefixSuccessor(pfx))}
	for i := range s.shards {
		s.shards[i] = slices.Clip(append(bytes.Clone(pfx), byte(i)))
	}
	return s
}

// shard is the key of the shard a transaction keyed by b adjusts: the row's
// encoded primary key for the row count, the indexed value for a
// cardinality.
func (s *stat) shard(b []byte) []byte { return s.shards[statShard(b)] }

// statAdd adjusts one statistics shard inside tx.
func (t *Table) statAdd(tx kv.Txn, key []byte, delta int64) error {
	cur, err := tx.Get(key)
	var n int64
	switch {
	case err == nil:
		n = decodeStat(cur)
	case errors.Is(err, kv.ErrNotFound):
	default:
		return err
	}
	return tx.Put(key, encodeStat(n+delta))
}

func encodeStat(n int64) []byte {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(n) >> (56 - 8*i))
	}
	return b[:]
}

func decodeStat(b []byte) int64 {
	if len(b) != 8 {
		return 0
	}
	var u uint64
	for _, c := range b {
		u = u<<8 | uint64(c)
	}
	return int64(u)
}

// sum reads and sums the counter's shards in one scan.
func (s *stat) sum(db kv.DB) (int64, error) {
	it := db.Scan(s.start, s.end, 0)
	var sum int64
	for it.Next() {
		sum += decodeStat(it.Value())
	}
	return sum, it.Err()
}

// RowCount returns the table's statistics row count (exact under the
// transactional maintenance above).
func (t *Table) RowCount() (int64, error) { return t.rows.sum(t.db) }

// Cardinality returns the named index's distinct-value count (0 for a name
// the table has no index by).
func (t *Table) Cardinality(idx string) (int64, error) {
	ix, err := t.findIdx(idx)
	if err != nil {
		return 0, nil
	}
	return ix.card.sum(t.db)
}

// source describes index ix's view of the base table for backfill and
// audit.
func (t *Table) source(ix *runtimeIdx) index.Source {
	start, end := t.rowRange()
	pfxLen := len(t.rowPfx)
	return index.Source{
		Start: start,
		End:   end,
		Extract: func(key, value []byte) (*index.Entry, error) {
			row, err := t.decodeRow(value)
			if err != nil {
				return nil, err
			}
			return &index.Entry{Val: ix.idxVal(row), PK: bytes.Clone(key[pfxLen:])}, nil
		},
	}
}

// findIdx resolves an index name.
func (t *Table) findIdx(name string) (*runtimeIdx, error) {
	for i := range t.idxs {
		if t.idxs[i].decl.Name == name {
			return &t.idxs[i], nil
		}
	}
	return nil, fmt.Errorf("table %s: no index %q", t.schema.Name, name)
}

// BuildIndex backfills the named index online (see index.Build); batch
// bounds each closure's footprint (0 = default). Concurrent writers keep
// maintaining the index through their own transactions while it runs.
// Cardinality statistics are rebuilt from the finished index.
func (t *Table) BuildIndex(name string, batch int) (index.BuildStats, error) {
	ix, err := t.findIdx(name)
	if err != nil {
		return index.BuildStats{}, err
	}
	stats, err := index.Build(t.db, ix.def, t.source(ix), batch)
	if err != nil {
		return stats, err
	}
	return stats, t.recountCardinality(ix)
}

// recountCardinality recomputes ix's distinct-value shards from the
// index itself: scan entries counting value changes, then write the
// shard records in one transaction. Writers running concurrently keep
// adjusting the shards afterwards, so the result converges as long as
// the recount's snapshot covered a quiesced or newly built index.
func (t *Table) recountCardinality(ix *runtimeIdx) error {
	counts := make([]int64, statShards)
	it := index.Scan(t.db, ix.def, nil, nil, 0)
	var last []byte
	for it.Next() {
		if last == nil || !bytes.Equal(last, it.Val()) {
			last = bytes.Clone(it.Val())
			counts[statShard(last)]++
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	return t.db.Update(func(tx kv.Txn) error {
		for s, k := range ix.card.shards {
			if err := tx.Put(k, encodeStat(counts[s])); err != nil {
				return err
			}
		}
		return nil
	})
}

// VerifyIndex audits the named index against the base rows in both
// directions (see index.Verify).
func (t *Table) VerifyIndex(name string) ([]index.Mismatch, error) {
	ix, err := t.findIdx(name)
	if err != nil {
		return nil, err
	}
	return index.Verify(t.db, ix.def, t.source(ix))
}
