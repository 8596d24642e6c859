package table

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"rhtm/index"
	"rhtm/kv"
	"rhtm/obs"
)

// Cond is one conjunct of a query's filter: an equality or a half-open
// range on a single field. Exactly one of Eq or (Lo and/or Hi) is set.
type Cond struct {
	Field string
	Eq    *Value
	Lo    *Value // inclusive lower bound
	Hi    *Value // exclusive upper bound
}

// Eq builds an equality condition.
func Eq(field string, v Value) Cond { return Cond{Field: field, Eq: &v} }

// Ge builds a lower-bound condition (field >= v).
func Ge(field string, v Value) Cond { return Cond{Field: field, Lo: &v} }

// Between builds a range condition (lo <= field < hi).
func Between(field string, lo, hi Value) Cond {
	return Cond{Field: field, Lo: &lo, Hi: &hi}
}

func (c Cond) String() string {
	switch {
	case c.Eq != nil:
		return fmt.Sprintf("%s=%s", c.Field, *c.Eq)
	case c.Lo != nil && c.Hi != nil:
		return fmt.Sprintf("%s in [%s,%s)", c.Field, *c.Lo, *c.Hi)
	case c.Lo != nil:
		return fmt.Sprintf("%s>=%s", c.Field, *c.Lo)
	case c.Hi != nil:
		return fmt.Sprintf("%s<%s", c.Field, *c.Hi)
	default:
		return c.Field + "=?"
	}
}

// matches evaluates the condition against a value of the field.
func (c Cond) matches(v Value) bool {
	if c.Eq != nil {
		return v.Equal(*c.Eq)
	}
	if c.Lo != nil && v.Compare(*c.Lo) < 0 {
		return false
	}
	if c.Hi != nil && v.Compare(*c.Hi) >= 0 {
		return false
	}
	return true
}

// Query is a declarative read: ANDed filter conditions, an optional
// ascending order field, an optional limit, and an optional projection.
// The planner — not the caller — decides how it executes.
type Query struct {
	Conds  []Cond
	Order  string   // order by this field ascending; "" = unspecified
	Limit  int      // 0 = unbounded
	Fields []string // projection, nil = all fields in schema order
}

// PlanKind is how a query executes.
type PlanKind uint8

const (
	// PlanPoint is a direct primary-key Get (filter pins every key field).
	PlanPoint PlanKind = iota
	// PlanCovering scans index entries and answers from them alone.
	PlanCovering
	// PlanIndex scans index entries and fetches each base row.
	PlanIndex
	// PlanFull scans the whole table.
	PlanFull
)

func (k PlanKind) String() string {
	switch k {
	case PlanPoint:
		return "point"
	case PlanCovering:
		return "covering"
	case PlanIndex:
		return "index"
	default:
		return "full"
	}
}

// Plan is a chosen execution strategy. Explain renders the pinned,
// test-stable description.
type Plan struct {
	Kind  PlanKind
	Index string // index name, for PlanCovering/PlanIndex
	Cost  int64  // the planner's cost estimate (see DESIGN.md §13)

	t     *Table
	ix    *runtimeIdx
	eqPfx []Value // ordered-codec prefix the index scan pins
	lo    *Value  // range bound on the field after the pinned prefix
	hi    *Value
	resid []Cond // conditions the scan does not subsume
	sort  bool   // results must be sorted by q.Order after collection
	q     Query
}

// Explain renders the plan, e.g.
//
//	index(by_city eq "ams") fetch filter(age>=30) cost=12
//	scan(users) filter(city="ams") sort(age) cost=20000
//	index(by_city) covering order(city) limit(5 pushed) cost=5
//
// "pushed" marks a limit the scan itself stops at (see scanLimit); a bare
// limit(n) is applied to the collected rows.
func (p *Plan) Explain() string {
	var b strings.Builder
	switch p.Kind {
	case PlanPoint:
		fmt.Fprintf(&b, "point(%s)", p.t.schema.Name)
	case PlanCovering, PlanIndex:
		fmt.Fprintf(&b, "index(%s", p.Index)
		if len(p.eqPfx) > 0 {
			parts := make([]string, len(p.eqPfx))
			for i, v := range p.eqPfx {
				parts[i] = v.String()
			}
			fmt.Fprintf(&b, " eq %s", strings.Join(parts, ","))
		}
		if p.lo != nil || p.hi != nil {
			lo, hi := "-inf", "+inf"
			if p.lo != nil {
				lo = p.lo.String()
			}
			if p.hi != nil {
				hi = p.hi.String()
			}
			fmt.Fprintf(&b, " range [%s,%s)", lo, hi)
		}
		b.WriteString(")")
		if p.Kind == PlanCovering {
			b.WriteString(" covering")
		} else {
			b.WriteString(" fetch")
		}
	default:
		fmt.Fprintf(&b, "scan(%s)", p.t.schema.Name)
	}
	if len(p.resid) > 0 {
		parts := make([]string, len(p.resid))
		for i, c := range p.resid {
			parts[i] = c.String()
		}
		fmt.Fprintf(&b, " filter(%s)", strings.Join(parts, " and "))
	}
	if p.q.Order != "" {
		if p.sort {
			fmt.Fprintf(&b, " sort(%s)", p.q.Order)
		} else {
			fmt.Fprintf(&b, " order(%s)", p.q.Order)
		}
	}
	switch {
	case p.scanLimit() > 0:
		fmt.Fprintf(&b, " limit(%d pushed)", p.q.Limit)
	case p.q.Limit > 0:
		fmt.Fprintf(&b, " limit(%d)", p.q.Limit)
	}
	fmt.Fprintf(&b, " cost=%d", p.Cost)
	return b.String()
}

// rangeFraction is the planner's selectivity guess for a range
// condition with no better information: one third of the rows.
const rangeFraction = 3

// Plan chooses how q executes, using the table's statistics (row count,
// per-index distinct values). The cost rule (DESIGN.md §13):
//
//	point get                      cost 1
//	index scan    matches × 2      (entry + base-row fetch per match)
//	covering scan matches × 1      (entries answer the query alone)
//	full scan     rows × 1
//
// where matches = rows ÷ cardinality for an equality on the index's
// fields, and rows ÷ 3 for a range on its first field. A plan whose scan
// order already satisfies q.Order skips the sort; when it also has no
// residual filter, the limit bounds the scan and caps the cost. Lowest
// cost wins; ties prefer point < covering < index < full, then index
// name.
//
// Each statistic is read where its formula uses it: the row count once,
// for the full scan every query can fall back on, and an index's
// cardinality only for a candidate with an equality prefix.
func (t *Table) Plan(q Query) (*Plan, error) {
	if err := t.checkQuery(q); err != nil {
		return nil, err
	}

	conds := make(map[string]Cond, len(q.Conds))
	for _, c := range q.Conds {
		conds[c.Field] = c
	}

	var best *Plan
	consider := func(p *Plan) {
		if best == nil || p.Cost < best.Cost ||
			(p.Cost == best.Cost && (p.Kind < best.Kind ||
				(p.Kind == best.Kind && p.Index < best.Index))) {
			best = p
		}
	}

	// An order field pinned by an equality is trivially satisfied by any
	// scan order.
	orderPinned := func() bool {
		c, ok := conds[q.Order]
		return ok && c.Eq != nil
	}

	// Point get: every primary-key field pinned by an equality.
	if eq, ok := t.pinned(conds, t.schema.Key); ok {
		consider(&Plan{
			Kind: PlanPoint, Cost: 1, t: t, eqPfx: eq,
			resid: t.residual(q.Conds, t.schema.Key), q: q,
		})
	}

	// Full scan: row keys are ordered by the primary key, so ordering by
	// its first field comes free.
	rows, err := t.RowCount()
	if err != nil {
		return nil, err
	}
	rows = max(rows, 1)
	fullOrderOK := q.Order == "" || q.Order == t.schema.Key[0] || orderPinned()
	consider(&Plan{
		Kind: PlanFull, t: t, resid: q.Conds, q: q,
		sort: !fullOrderOK,
		Cost: t.scanCost(rows, len(q.Conds) == 0, q, fullOrderOK, 1),
	})

	// One candidate per index: pin the longest equality prefix of the
	// index's fields, then an optional range on the next field.
	for i := range t.idxs {
		ix := &t.idxs[i]
		var eqPfx []Value
		var used []string
		for _, f := range ix.decl.Fields {
			c, ok := conds[f]
			if !ok || c.Eq == nil {
				break
			}
			eqPfx = append(eqPfx, *c.Eq)
			used = append(used, f)
		}
		var lo, hi *Value
		if len(used) < len(ix.decl.Fields) {
			next := ix.decl.Fields[len(used)]
			if c, ok := conds[next]; ok && c.Eq == nil {
				lo, hi = c.Lo, c.Hi
				used = append(used, next)
			}
		}
		if len(eqPfx) == 0 && lo == nil && hi == nil && q.Order != ix.decl.Fields[0] {
			continue // index helps neither the filter nor the order
		}

		matches := rows
		if len(eqPfx) > 0 {
			card, err := ix.card.sum(t.db)
			if err != nil {
				return nil, err
			}
			card = max(card, 1)
			matches = (rows + card - 1) / card
		}
		if lo != nil || hi != nil {
			matches = matches / rangeFraction
		}
		matches = max(matches, 1)

		resid := t.residual(q.Conds, used)
		// The scan yields entries ordered by the indexed fields (then
		// primary key). With a pinned equality prefix, the next indexed
		// field is the scan's order.
		orderOK := q.Order == "" || orderPinned()
		if !orderOK && len(eqPfx) < len(ix.decl.Fields) &&
			q.Order == ix.decl.Fields[len(eqPfx)] {
			orderOK = true // the field after the pinned prefix is the scan order
		}

		kind := PlanIndex
		factor := int64(2)
		if t.covered(ix, q) {
			kind, factor = PlanCovering, 1
		}
		consider(&Plan{
			Kind: kind, Index: ix.decl.Name, t: t, ix: ix,
			eqPfx: eqPfx, lo: lo, hi: hi, resid: resid, q: q,
			sort: q.Order != "" && !orderOK,
			Cost: t.scanCost(matches, len(resid) == 0, q, orderOK, factor),
		})
	}
	t.met.picked(best.Kind)
	return best, nil
}

// scanLimit is the limit the plan hands its kv scan: q.Limit when the scan's
// order is the result's order and every entry it yields is a result — the
// condition scanCost caps on — and 0 (unbounded) when the plan sorts or
// filters, because the first Limit results may then lie anywhere in the
// range.
func (p *Plan) scanLimit() int {
	if p.sort || len(p.resid) > 0 {
		return 0
	}
	return p.q.Limit
}

// scanCost applies the shared cost shape: visited × factor, capped by
// the limit when the scan can stop early (order satisfied, no residual
// filter), plus the sort's extra pass when it cannot.
func (t *Table) scanCost(visited int64, noResid bool, q Query, orderOK bool, factor int64) int64 {
	if q.Limit > 0 && orderOK && noResid && int64(q.Limit) < visited {
		visited = int64(q.Limit)
	}
	cost := visited * factor
	if q.Order != "" && !orderOK {
		cost += visited // the in-memory sort pass
	}
	return cost
}

// pinned returns the equality values for fields, in order, when every
// one of them has an equality condition.
func (t *Table) pinned(conds map[string]Cond, fields []string) ([]Value, bool) {
	vals := make([]Value, 0, len(fields))
	for _, f := range fields {
		c, ok := conds[f]
		if !ok || c.Eq == nil {
			return nil, false
		}
		vals = append(vals, *c.Eq)
	}
	return vals, true
}

// residual returns the conditions not on any of the used fields.
func (t *Table) residual(conds []Cond, used []string) []Cond {
	var out []Cond
	for _, c := range conds {
		subsumed := false
		for _, f := range used {
			if c.Field == f {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, c)
		}
	}
	return out
}

// covered reports whether every field the query needs — projection,
// residual filters, order — is among ix's fields or the primary key,
// so index entries answer the query without base-row fetches.
func (t *Table) covered(ix *runtimeIdx, q Query) bool {
	avail := map[string]bool{}
	for _, f := range ix.decl.Fields {
		avail[f] = true
	}
	for _, f := range t.schema.Key {
		avail[f] = true
	}
	need := q.Fields
	if need == nil {
		for _, f := range t.schema.Fields {
			need = append(need, f.Name)
		}
	}
	for _, f := range need {
		if !avail[f] {
			return false
		}
	}
	for _, c := range q.Conds {
		if !avail[c.Field] {
			return false
		}
	}
	if q.Order != "" && !avail[q.Order] {
		return false
	}
	return true
}

// checkQuery validates field references and condition shapes.
func (t *Table) checkQuery(q Query) error {
	for _, c := range q.Conds {
		if _, ok := t.fieldPos[c.Field]; !ok {
			return fmt.Errorf("table %s: unknown field %q in filter", t.schema.Name, c.Field)
		}
		if c.Eq != nil && (c.Lo != nil || c.Hi != nil) {
			return fmt.Errorf("table %s: condition on %s mixes equality and range", t.schema.Name, c.Field)
		}
		if c.Eq == nil && c.Lo == nil && c.Hi == nil {
			return fmt.Errorf("table %s: empty condition on %s", t.schema.Name, c.Field)
		}
	}
	if q.Order != "" {
		if _, ok := t.fieldPos[q.Order]; !ok {
			return fmt.Errorf("table %s: unknown order field %q", t.schema.Name, q.Order)
		}
	}
	for _, f := range q.Fields {
		if _, ok := t.fieldPos[f]; !ok {
			return fmt.Errorf("table %s: unknown projected field %q", t.schema.Name, f)
		}
	}
	if q.Limit < 0 {
		return fmt.Errorf("table %s: negative limit", t.schema.Name)
	}
	return nil
}

// Select plans and executes q, returning the projected rows.
func (t *Table) Select(q Query) ([][]Value, error) {
	p, err := t.Plan(q)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// Explain plans q and returns the pinned plan description.
func (t *Table) Explain(q Query) (string, error) {
	p, err := t.Plan(q)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// Run executes the plan against the table's DB as one read of one snapshot:
// a Get for a point plan, a Scan for a full or covering plan, and one
// closure transaction for an index fetch plan.
func (p *Plan) Run() ([][]Value, error) {
	t := p.t
	t.met.op(func(m *metrics) *obs.Counter { return m.selects })
	var rows [][]Value
	var visited int
	var err error
	switch p.Kind {
	case PlanPoint:
		rows, visited, err = p.runPoint()
	case PlanFull:
		rows, visited, err = p.runFull()
	default:
		rows, visited, err = p.runIndex()
	}
	if err != nil {
		return nil, err
	}
	t.met.scanned(visited)
	if p.sort && p.q.Order != "" {
		pos := t.fieldPos[p.q.Order]
		sort.SliceStable(rows, func(i, j int) bool {
			return rows[i][pos].Compare(rows[j][pos]) < 0
		})
	}
	if p.q.Limit > 0 && len(rows) > p.q.Limit {
		rows = rows[:p.q.Limit]
	}
	return p.project(rows), nil
}

// runPoint fetches the single pinned row.
func (p *Plan) runPoint() ([][]Value, int, error) {
	row, err := p.t.Get(p.eqPfx...)
	if errors.Is(err, kv.ErrNotFound) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if !p.accept(row) {
		return nil, 1, nil
	}
	return [][]Value{row}, 1, nil
}

// runFull scans the row range, filtering as it goes. When the scan order
// already satisfies the query it stops at the limit, and with no filter
// either the scan itself is bounded by it.
func (p *Plan) runFull() ([][]Value, int, error) {
	start, end := p.t.rowRange()
	it := p.t.db.Scan(start, end, p.scanLimit())
	var rows [][]Value
	visited := 0
	for it.Next() {
		visited++
		row, err := p.t.decodeRow(it.Value())
		if err != nil {
			return nil, visited, err
		}
		if !p.accept(row) {
			continue
		}
		rows = append(rows, row)
		if p.q.Limit > 0 && !p.sort && len(rows) >= p.q.Limit {
			break
		}
	}
	return rows, visited, it.Err()
}

// runIndex scans the chosen index range and turns each entry into its row.
// A covering plan needs the entries alone, and one Scan is one snapshot. A
// fetch plan reads entries and rows in one closure transaction, so its
// result is one snapshot too: no row a concurrent writer moved between the
// entry read and the fetch comes back, and every entry has its row.
func (p *Plan) runIndex() ([][]Value, int, error) {
	start, end := p.indexRange()
	if p.Kind == PlanCovering {
		return p.collect(nil, p.t.db.Scan(start, end, p.scanLimit()))
	}
	var rows [][]Value
	var visited int
	err := p.t.db.Update(func(tx kv.Txn) error {
		var err error
		rows, visited, err = p.collect(tx, tx.Scan(start, end, p.scanLimit()))
		return err
	})
	return rows, visited, err
}

// collect turns the index entries kvIt yields into the rows the residual
// filter accepts, fetching them in tx unless the plan is covering.
func (p *Plan) collect(tx kv.Txn, kvIt kv.Iterator) ([][]Value, int, error) {
	var rows [][]Value
	visited := 0
	it := index.Entries(p.ix.def, kvIt)
	for it.Next() {
		visited++
		row, err := p.entryRow(tx, it)
		if err != nil {
			return nil, visited, err
		}
		if row != nil && p.accept(row) {
			rows = append(rows, row)
		}
	}
	return rows, visited, it.Err()
}

// indexRange is the entry-key range the plan's pinned prefix and range
// bound select.
func (p *Plan) indexRange() (start, end []byte) {
	loVal := AppendTuple(nil, p.eqPfx...)
	var hiVal []byte
	switch {
	case p.lo != nil || p.hi != nil:
		if p.lo != nil {
			loVal = AppendOrdered(loVal, *p.lo)
		}
		if p.hi != nil {
			hiVal = AppendOrdered(AppendTuple(nil, p.eqPfx...), *p.hi)
		} else if len(p.eqPfx) > 0 {
			hiVal = index.PrefixSuccessor(AppendTuple(nil, p.eqPfx...))
		}
	case len(p.eqPfx) > 0:
		hiVal = index.PrefixSuccessor(loVal)
	}
	// A nil hiVal (no upper bound) makes Range end at the index's last
	// entry.
	return index.Range(p.ix.def, loVal, hiVal)
}

// entryRow turns the index entry it stands on into its row: rebuilt from the
// entry alone for a covering plan, fetched by primary key in tx otherwise.
// It is nil when the row is absent, which a committed snapshot never shows:
// only an optimistic attempt that read the entry before a concurrent delete
// sees it, and that attempt fails its commit validation and runs again.
func (p *Plan) entryRow(tx kv.Txn, it *index.Iter) ([]Value, error) {
	if p.Kind == PlanCovering {
		return p.rowFromEntry(it.Val(), it.PK())
	}
	row, err := p.t.readTx(tx, it.PK())
	if errors.Is(err, kv.ErrNotFound) {
		return nil, nil
	}
	return row, err
}

// rowFromEntry reconstructs a partial row (indexed fields + primary key;
// everything else the invalid zero Value) from one covering entry.
func (p *Plan) rowFromEntry(val, pk []byte) ([]Value, error) {
	t := p.t
	row := make([]Value, len(t.schema.Fields))
	vals, rest, err := DecodeTuple(val, len(p.ix.fieldPos))
	if err != nil {
		return nil, fmt.Errorf("index %s: entry value: %w", p.ix.def.Name, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("index %s: %d trailing bytes in entry value", p.ix.def.Name, len(rest))
	}
	for i, pos := range p.ix.fieldPos {
		row[pos] = vals[i]
	}
	pkVals, rest, err := DecodeTuple(pk, len(t.keyPos))
	if err != nil {
		return nil, fmt.Errorf("index %s: entry pk: %w", p.ix.def.Name, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("index %s: %d trailing bytes in entry pk", p.ix.def.Name, len(rest))
	}
	for i, pos := range t.keyPos {
		row[pos] = pkVals[i]
	}
	return row, nil
}

// accept applies the residual filter. Point plans also re-check their
// pinned equalities (the Get already guarantees them; this keeps accept
// total).
func (p *Plan) accept(row []Value) bool {
	for _, c := range p.resid {
		if !c.matches(row[p.t.fieldPos[c.Field]]) {
			return false
		}
	}
	return true
}

// project applies the query's projection.
func (p *Plan) project(rows [][]Value) [][]Value {
	if p.q.Fields == nil {
		return rows
	}
	pos := make([]int, len(p.q.Fields))
	for i, f := range p.q.Fields {
		pos[i] = p.t.fieldPos[f]
	}
	out := make([][]Value, len(rows))
	for i, r := range rows {
		pr := make([]Value, len(pos))
		for j, x := range pos {
			pr[j] = r[x]
		}
		out[i] = pr
	}
	return out
}
