package table

import (
	"bytes"
	"math"
	"testing"
)

// TestOrderedGoldenVectors pins the ordered encoding byte-for-byte: the
// on-disk format of every index entry and primary key. Changing any of
// these breaks every persisted index.
// bytesVal is a TBytes value. No caller outside the package declares a
// TBytes column; the codec still round-trips and orders the type.
func bytesVal(b []byte) Value { return Value{t: TBytes, b: b} }

func TestOrderedGoldenVectors(t *testing.T) {
	cases := []struct {
		name string
		v    Value
		enc  []byte
	}{
		{"int64 min", Int64(math.MinInt64), []byte{0x10, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"int64 -1", Int64(-1), []byte{0x10, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
		{"int64 0", Int64(0), []byte{0x10, 0x80, 0, 0, 0, 0, 0, 0, 0}},
		{"int64 1", Int64(1), []byte{0x10, 0x80, 0, 0, 0, 0, 0, 0, 1}},
		{"int64 max", Int64(math.MaxInt64), []byte{0x10, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
		{"empty string", String(""), []byte{0x20, 0x00, 0x01}},
		{"string a", String("a"), []byte{0x20, 'a', 0x00, 0x01}},
		{"string with NUL", String("a\x00b"), []byte{0x20, 'a', 0x00, 0xFF, 'b', 0x00, 0x01}},
		{"string NUL only", String("\x00"), []byte{0x20, 0x00, 0xFF, 0x00, 0x01}},
		{"empty bytes", bytesVal(nil), []byte{0x30, 0x00, 0x01}},
		{"bytes ff", bytesVal([]byte{0xFF}), []byte{0x30, 0xFF, 0x00, 0x01}},
	}
	for _, c := range cases {
		got := AppendOrdered(nil, c.v)
		if !bytes.Equal(got, c.enc) {
			t.Errorf("%s: encoded %x, want %x", c.name, got, c.enc)
		}
		dec, rest, err := DecodeOrdered(got)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if len(rest) != 0 {
			t.Errorf("%s: %d bytes left after decode", c.name, len(rest))
		}
		if !dec.Equal(c.v) {
			t.Errorf("%s: round-trip %v != %v", c.name, dec, c.v)
		}
	}
}

// TestOrderAgreement checks the codec's defining property on a curated
// set: bytes.Compare of encodings == Value.Compare, including the
// classic traps ("a" vs "a\x00", "a" vs "ab", negative ints, cross-type
// pairs).
func TestOrderAgreement(t *testing.T) {
	vals := []Value{
		Int64(math.MinInt64), Int64(-1_000_000), Int64(-2), Int64(-1),
		Int64(0), Int64(1), Int64(255), Int64(256), Int64(math.MaxInt64),
		String(""), String("\x00"), String("\x00\x00"), String("\x00\x01"),
		String("a"), String("a\x00"), String("a\x00b"), String("a\x01"),
		String("ab"), String("b"), String("\xff"), String("\xff\xff"),
		bytesVal(nil), bytesVal([]byte{0x00}), bytesVal([]byte{0x00, 0x01}),
		bytesVal([]byte("a")), bytesVal([]byte{0xFF}),
	}
	for _, a := range vals {
		for _, b := range vals {
			want := a.Compare(b)
			got := bytes.Compare(AppendOrdered(nil, a), AppendOrdered(nil, b))
			if got != want {
				t.Errorf("order mismatch: %v vs %v: encoded %d, logical %d", a, b, got, want)
			}
		}
	}
}

// TestOrderedPrefixFree checks self-delimiting decode: any tuple of
// encodings concatenated decodes back to exactly the same tuple.
func TestOrderedPrefixFree(t *testing.T) {
	tuples := [][]Value{
		{String("a"), String("")},
		{String(""), String("a")},
		{String("a\x00"), Int64(-1)},
		{Int64(0), bytesVal([]byte{0x00, 0x01}), String("x")},
		{bytesVal(nil), bytesVal(nil)},
	}
	for _, tu := range tuples {
		enc := AppendTuple(nil, tu...)
		dec, rest, err := DecodeTuple(enc, len(tu))
		if err != nil {
			t.Fatalf("tuple %v: %v", tu, err)
		}
		if len(rest) != 0 {
			t.Errorf("tuple %v: %d trailing bytes", tu, len(rest))
		}
		for i := range tu {
			if !dec[i].Equal(tu[i]) {
				t.Errorf("tuple %v: field %d decoded %v", tu, i, dec[i])
			}
		}
	}
}

// TestRowCodecRoundTrip pins the row codec on representative rows.
func TestRowCodecRoundTrip(t *testing.T) {
	rows := [][]Value{
		{Int64(42), String("alice"), bytesVal([]byte{1, 2, 3})},
		{Int64(-1), String(""), bytesVal(nil)},
		{String("k"), Int64(math.MaxInt64)},
	}
	for _, row := range rows {
		enc := AppendRow(nil, row)
		dec, err := DecodeRow(enc, len(row))
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		for i := range row {
			if !dec[i].Equal(row[i]) {
				t.Errorf("row %v: field %d decoded %v", row, i, dec[i])
			}
		}
	}
	if _, err := DecodeRow([]byte{0x10, 1, 2}, 1); err == nil {
		t.Error("truncated row decoded without error")
	}
	if _, err := DecodeRow(AppendRow(nil, []Value{Int64(1)}), 2); err == nil {
		t.Error("short row decoded without error")
	}
}

// corpusValue maps fuzz bytes onto a Value deterministically.
func corpusValue(kind byte, i int64, payload []byte) Value {
	switch kind % 3 {
	case 0:
		return Int64(i)
	case 1:
		return String(string(payload))
	default:
		return bytesVal(payload)
	}
}

// FuzzRecordCodec fuzzes the codec's two contracts at once: ordered
// encodings round-trip exactly and compare identically to their logical
// values (including as concatenated two-field tuples), and row encodings
// round-trip.
func FuzzRecordCodec(f *testing.F) {
	f.Add(byte(0), int64(-1), []byte("a"), byte(1), int64(7), []byte("a\x00b"))
	f.Add(byte(1), int64(0), []byte(""), byte(2), int64(math.MinInt64), []byte{0x00, 0xFF})
	f.Add(byte(2), int64(math.MaxInt64), []byte{0xFF}, byte(0), int64(1), []byte{0x00})
	f.Fuzz(func(t *testing.T, ka byte, ia int64, pa []byte, kb byte, ib int64, pb []byte) {
		a, b := corpusValue(ka, ia, pa), corpusValue(kb, ib, pb)

		ea, eb := AppendOrdered(nil, a), AppendOrdered(nil, b)
		if got, want := bytes.Compare(ea, eb), a.Compare(b); got != want {
			t.Fatalf("order mismatch: %v vs %v: encoded %d, logical %d", a, b, got, want)
		}

		da, rest, err := DecodeOrdered(ea)
		if err != nil || len(rest) != 0 || !da.Equal(a) {
			t.Fatalf("ordered round-trip of %v: got %v rest=%d err=%v", a, da, len(rest), err)
		}

		// Tuple order: comparing (a,b) against (b,a) encodings must match
		// the field-by-field comparison.
		tab := AppendTuple(nil, a, b)
		tba := AppendTuple(nil, b, a)
		want := a.Compare(b)
		if want == 0 {
			want = b.Compare(a)
		}
		if got := bytes.Compare(tab, tba); got != want {
			t.Fatalf("tuple order mismatch: %v,%v: encoded %d, logical %d", a, b, got, want)
		}
		dec, rest, err := DecodeTuple(tab, 2)
		if err != nil || len(rest) != 0 || !dec[0].Equal(a) || !dec[1].Equal(b) {
			t.Fatalf("tuple round-trip of %v,%v failed: %v %v", a, b, dec, err)
		}

		row := []Value{a, b}
		rdec, err := DecodeRow(AppendRow(nil, row), 2)
		if err != nil || !rdec[0].Equal(a) || !rdec[1].Equal(b) {
			t.Fatalf("row round-trip of %v,%v failed: %v %v", a, b, rdec, err)
		}
	})
}
