package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rhtm/internal/scratch"
)

// footprintModel is what one transaction of TestTxnLargeFootprint must
// leave: the committed state as a sorted map, and the keys it touched with
// whether it read and wrote each.
type footprintModel struct {
	state   map[string]string
	touched map[string][2]bool // read, written
}

// scan returns the model's state inside [start, end), ascending.
func (m *footprintModel) scan(start, end string) []string {
	var out []string
	for k, v := range m.state {
		if k >= start && k < end {
			out = append(out, k+"="+v)
		}
	}
	slices.Sort(out)
	return out
}

func (m *footprintModel) touch(k string, read, written bool) {
	was := m.touched[k]
	m.touched[k] = [2]bool{was[0] || read, was[1] || written}
}

// checkFootprint fails t unless tx's Footprint is ascending, holds each
// key once, and carries exactly the reads and writes the model recorded.
func (m *footprintModel) checkFootprint(t *testing.T, tx *Txn) {
	t.Helper()
	var foot []string
	tx.Footprint(func(key []byte, read *Record, w *Write) {
		want, ok := m.touched[string(key)]
		if !ok || want != [2]bool{read != nil, w != nil} {
			t.Fatalf("footprint %s: read %v, write %v; model %v (touched %v)", key, read != nil, w != nil, want, ok)
		}
		foot = append(foot, string(key))
	})
	if len(foot) != len(m.touched) || !slices.IsSorted(foot) {
		t.Fatalf("footprint: %d keys, sorted %v; model %d keys", len(foot), slices.IsSorted(foot), len(m.touched))
	}
	for i := 1; i < len(foot); i++ {
		if foot[i] == foot[i-1] {
			t.Fatalf("footprint holds %s twice", foot[i])
		}
	}
}

// pointAccesses commits two large footprints that no scan seeded, so every
// key enters on a first touch: a transaction that Gets and Puts 2,048 keys
// in shuffled order (some absent) and Deletes 8 of them, checked against
// the model before it commits, and a cross-System Batch of 1,024 shuffled
// Gets, Puts and Deletes, each result checked against the model.
func (m *footprintModel) pointAccesses(t *testing.T, cl *Client, rng *rand.Rand) {
	t.Helper()
	keys := make([]string, 2048)
	for i := range keys {
		keys[i] = fmt.Sprintf("in-%05d", 2*i+rng.Intn(2)) // in-04096 and past are absent
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	m.touched = map[string][2]bool{}
	err := cl.Txn(func(tx *Txn) error {
		for _, k := range keys {
			v, ok, err := tx.Get([]byte(k))
			if err != nil {
				return err
			}
			if want, present := m.state[k]; ok != present || string(v) != want {
				t.Fatalf("Get(%s) = %q, %v; model %q, %v", k, v, ok, want, present)
			}
			m.state[k] = "point-" + k
			tx.Put([]byte(k), []byte(m.state[k]))
			m.touch(k, true, true)
		}
		for _, k := range keys[len(keys)-8:] {
			if ok, err := tx.Delete([]byte(k)); err != nil || !ok {
				t.Fatalf("Delete(%s) = %v, %v; model present", k, ok, err)
			}
			delete(m.state, k)
		}
		m.checkFootprint(t, tx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]BatchOp, 1024)
	for i := range ops {
		k := []byte(fmt.Sprintf("in-%05d", rng.Intn(4200)))
		ops[i] = BatchOp{Kind: BatchOpKind(rng.Intn(3)), Key: k, Value: []byte(fmt.Sprintf("batch-%d", i))}
	}
	res, err := cl.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		k := string(op.Key)
		want, present := m.state[k]
		switch op.Kind {
		case BatchGet:
			if res[i].Found != present || string(res[i].Value) != want {
				t.Fatalf("batch Get(%s) = %q, %v; model %q, %v", k, res[i].Value, res[i].Found, want, present)
			}
		case BatchPut:
			m.state[k] = string(op.Value)
		case BatchDelete:
			if res[i].Found != present {
				t.Fatalf("batch Delete(%s) reports %v, model %v", k, res[i].Found, present)
			}
			delete(m.state, k)
		}
	}
}

// entryStrings renders scan entries as the model's key=value strings.
func entryStrings(es []Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = string(e.Key) + "=" + string(e.Value)
	}
	return out
}

// TestTxnLargeFootprint: one transaction scans 4,096 keys, then Gets and
// Puts 64 keys in shuffled order, half inside the scanned range and half
// outside it (some of those absent), and Deletes 8. Its Footprint is
// ascending with each key once, carrying exactly the reads and writes the
// model recorded, and a second Scan sees the buffer overlaid. Two point-
// access footprints follow (pointAccesses), and a Scan in a new
// transaction then returns the model's state.
func TestTxnLargeFootprint(t *testing.T) {
	const scanned = 4096
	c, err := New(Config{Systems: 2, ArenaWords: 1 << 19})
	if err != nil {
		t.Fatal(err)
	}
	m := &footprintModel{state: map[string]string{}, touched: map[string][2]bool{}}
	load := func(k, v string) {
		if err := c.Load([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		m.state[k] = v
	}
	for i := 0; i < scanned; i++ {
		load(fmt.Sprintf("in-%05d", i), fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 16; i++ {
		load(fmt.Sprintf("a-%03d", i), "before")
		load(fmt.Sprintf("z-%03d", i), "after")
	}
	rng := rand.New(rand.NewSource(7))
	var keys []string
	for _, i := range rng.Perm(scanned)[:32] {
		keys = append(keys, fmt.Sprintf("in-%05d", i))
	}
	for i := 0; i < 32; i++ {
		keys = append(keys, fmt.Sprintf("%c-%03d", "az"[i%2], i)) // a-/z- 016..031 are absent
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	deleted := append(append([]string{}, keys[:4]...), "in-00000", "in-04095", "a-000", "z-015")

	cl := c.NewClient()
	err = cl.Txn(func(tx *Txn) error {
		es, err := tx.Scan([]byte("in-"), []byte("in."), 0)
		if err != nil {
			return err
		}
		if got, want := entryStrings(es), m.scan("in-", "in."); !slices.Equal(got, want) {
			t.Fatalf("scan: %d entries, model %d", len(got), len(want))
		}
		for k := range m.state {
			if k >= "in-" && k < "in." {
				m.touch(k, true, false)
			}
		}
		for _, k := range keys {
			v, ok, err := tx.Get([]byte(k))
			if err != nil {
				return err
			}
			if want, present := m.state[k]; ok != present || string(v) != want {
				t.Fatalf("Get(%s) = %q, %v; model %q, %v", k, v, ok, want, present)
			}
			m.state[k] = "new-" + k
			tx.Put([]byte(k), []byte(m.state[k]))
			m.touch(k, true, true)
		}
		for _, k := range deleted {
			_, present := m.state[k]
			ok, err := tx.Delete([]byte(k))
			if err != nil {
				return err
			}
			if ok != present {
				t.Fatalf("Delete(%s) reports %v, model %v", k, ok, present)
			}
			delete(m.state, k)
			m.touch(k, true, true)
		}
		m.checkFootprint(t, tx)
		es, err = tx.Scan(nil, nil, 0)
		if err != nil {
			return err
		}
		if got, want := entryStrings(es), m.scan("", "\xff"); !slices.Equal(got, want) {
			t.Fatalf("overlaid scan: %d entries, model %d", len(got), len(want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.pointAccesses(t, cl, rng)
	err = cl.Txn(func(tx *Txn) error {
		es, err := tx.Scan(nil, nil, 0)
		if err != nil {
			return err
		}
		if got, want := entryStrings(es), m.scan("", "\xff"); !slices.Equal(got, want) {
			t.Errorf("committed scan: %d entries, model %d", len(got), len(want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnScratchRetention: after commits whose footprint, slab, scan
// ranges and log records grew far past scratch.Bound, the next one-key
// transaction leaves every buffer the Client reuses within the bound: the
// transaction's footprint, merge buffer, slab and scan ranges, the stamped
// records, the grouped keys and the decision record.
func TestTxnScratchRetention(t *testing.T) {
	c, err := New(Config{Systems: 2, ArenaWords: 1 << 19})
	if err != nil {
		t.Fatal(err)
	}
	attachMemWAL(t, c)
	cl := c.NewClient()
	value := bytes.Repeat([]byte("v"), 256)
	// Across both Systems: 2,048 buffered puts, then 1,500 scans, each of
	// which merges the footprint into the spare buffer.
	if err := cl.Txn(func(tx *Txn) error {
		for i := 0; i < 2048; i++ {
			tx.Put([]byte(fmt.Sprintf("key-%05d", i)), value)
		}
		for i := 0; i < 1500; i++ {
			if _, err := tx.Scan([]byte("scan-"), []byte("scan."), 0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// On one System: 1,024 records stamped in one engine transaction.
	if err := cl.Txn(func(tx *Txn) error {
		for _, k := range keysOnSystem(c, 0, 1024) {
			tx.Put(k, value)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Txn(func(tx *Txn) error {
		_, _, err := tx.Get([]byte("key-00001"))
		tx.Put([]byte("key-00001"), []byte("small"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		name string
		over bool
	}{
		{"footprint", scratch.Over(cl.txn.keys)},
		{"merge buffer", scratch.Over(cl.txn.spare)},
		{"slab", scratch.Over(cl.txn.slab)},
		{"scan ranges", scratch.Over(cl.txn.scans)},
		{"stamped records", scratch.Over(cl.w.recs)},
		{"grouped keys", scratch.Over(cl.grouped)},
		{"decision record", scratch.Over(cl.decision)},
	} {
		if b.over {
			t.Errorf("the Client keeps a %s over %d bytes after a one-key transaction", b.name, scratch.Bound)
		}
	}
}
