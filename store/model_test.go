package store

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"rhtm/containers"
)

// modelKeys draws keys that stress the key words and the descent that skips
// shared prefixes: 0 to 40 bytes, often on a key word boundary (6/7/8,
// 13/14/15, 20/21/22 bytes), from an alphabet with 0x00 and 0xff, usually
// under one of a few long shared prefixes so that many keys are prefixes of
// one another.
type modelKeys struct {
	rng      *rand.Rand
	prefixes [][]byte
}

func newModelKeys(seed int64) *modelKeys {
	return &modelKeys{
		rng: rand.New(rand.NewSource(seed)),
		prefixes: [][]byte{
			nil,
			bytes.Repeat([]byte{'p'}, 40),
			bytes.Repeat([]byte{0x00}, 40),
			bytes.Repeat([]byte{0xff}, 40),
			[]byte("user0000000000000000000000000000000000000"),
		},
	}
}

func (m *modelKeys) next() []byte {
	boundaries := []int{6, 7, 8, 13, 14, 15, 20, 21, 22}
	n := m.rng.Intn(41)
	if m.rng.Intn(2) == 0 {
		n = boundaries[m.rng.Intn(len(boundaries))]
	}
	p := m.prefixes[m.rng.Intn(len(m.prefixes))]
	key := append([]byte(nil), p[:min(m.rng.Intn(n+1)+n/2, n, len(p))]...)
	alphabet := []byte{0x00, 0x01, 'p', 'q', 0xfe, 0xff}
	for len(key) < n {
		key = append(key, alphabet[m.rng.Intn(len(alphabet))])
	}
	return key
}

// bound is a scan bound: nil (unbounded) once in eight draws.
func (m *modelKeys) bound() []byte {
	if m.rng.Intn(8) == 0 {
		return nil
	}
	return m.next()
}

// inRange reports start <= k < end with nil bounds unbounded.
func inRange(k string, start, end []byte) bool {
	return (start == nil || k >= string(start)) && (end == nil || k < string(end))
}

// TestStoreAgainstSortedModel runs random Puts, Deletes, Gets and Scans
// against a Go map read in sorted order: every answer the data index gives
// must be the model's, and the tree stays a valid red-black tree.
func TestStoreAgainstSortedModel(t *testing.T) {
	s := newSys(1 << 21)
	st := New(s, Options{ArenaWords: 1 << 20})
	tx := containers.SetupTx(s)
	keys := newModelKeys(1)
	model := map[string][]byte{}
	sorted := func() []string {
		ks := make([]string, 0, len(model))
		for k := range model {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	for op := 0; op < 6000; op++ {
		k := keys.next()
		switch r := keys.rng.Intn(10); {
		case r < 4:
			v := []byte{byte(op), byte(op >> 8), byte(len(k))}
			if err := st.Put(tx, k, v); err != nil {
				t.Fatalf("op %d: Put(%x): %v", op, k, err)
			}
			model[string(k)] = v
		case r < 6:
			_, want := model[string(k)]
			if got := del(st, tx, k); got != want {
				t.Fatalf("op %d: Delete(%x) found %v, model %v", op, k, got, want)
			}
			delete(model, string(k))
		case r < 9:
			want, wantOK := model[string(k)]
			if got, ok := st.Get(tx, k); ok != wantOK || !bytes.Equal(got, want) {
				t.Fatalf("op %d: Get(%x) = %x, %v; model %x, %v", op, k, got, ok, want, wantOK)
			}
		default:
			start, end := keys.bound(), keys.bound()
			var want []string
			for _, mk := range sorted() {
				if inRange(mk, start, end) {
					want = append(want, mk)
				}
			}
			var got []string
			st.ScanRev(tx, start, end, func(k, v []byte, _ uint64) bool {
				if !bytes.Equal(v, model[string(k)]) {
					t.Fatalf("op %d: Scan yields %x = %x, model %x", op, k, v, model[string(k)])
				}
				got = append(got, string(k))
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("op %d: Scan(%x, %x) yields %d keys, model %d", op, start, end, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %d: Scan(%x, %x)[%d] = %x, model %x", op, start, end, i, got[i], want[i])
				}
			}
		}
		if op%1000 == 0 {
			if err := st.Validate(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if got := st.Len(tx); got != len(model) {
		t.Fatalf("Len = %d, model holds %d", got, len(model))
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestIntentsAgainstSortedModel runs the same keys through the intent
// buckets: random prepares, discards, per-key checks and range checks
// against a Go map, every bucket staying a valid red-black tree.
func TestIntentsAgainstSortedModel(t *testing.T) {
	s := newSys(1 << 21)
	st := New(s, Options{ArenaWords: 1 << 20})
	tx := containers.SetupTx(s)
	keys := newModelKeys(2)
	model := map[string]uint64{} // key -> txid of its pending put intent
	txid := uint64(0)
	for op := 0; op < 20000; op++ {
		k := keys.next()
		owner, held := model[string(k)]
		switch r := keys.rng.Intn(10); {
		case r < 4:
			txid++
			err := st.PrepareIntent(tx, k, txid, IntentPut, []byte{byte(op)}, 0)
			if held && !errors.Is(err, ErrIntentHeld) || !held && err != nil {
				t.Fatalf("op %d: PrepareIntent(%x) = %v, model holds one: %v", op, k, err, held)
			}
			if !held {
				model[string(k)] = txid
			}
		case r < 6:
			err := st.DiscardIntent(tx, k, owner)
			if held && err != nil || !held && !errors.Is(err, ErrIntentMissing) {
				t.Fatalf("op %d: DiscardIntent(%x) = %v, model holds one: %v", op, k, err, held)
			}
			delete(model, string(k))
		case r < 9:
			if got, ok := st.WriteIntentOn(tx, k); ok != held || got != owner {
				t.Fatalf("op %d: WriteIntentOn(%x) = %d, %v; model %d, %v", op, k, got, ok, owner, held)
			}
		default:
			start, end := keys.bound(), keys.bound()
			want := false
			for mk := range model {
				want = want || inRange(mk, start, end)
			}
			if got := st.HasWriteIntentInRange(tx, start, end); got != want {
				t.Fatalf("op %d: HasWriteIntentInRange(%x, %x) = %v, model %v", op, start, end, got, want)
			}
		}
	}
	if got := st.PendingIntents(tx); got != len(model) {
		t.Fatalf("PendingIntents = %d, model holds %d", got, len(model))
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}
