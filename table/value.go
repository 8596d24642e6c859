// Package table is the record layer over kv.DB: typed rows, declared
// schemas with secondary indexes, and a planner-lite query engine that
// picks index scans versus full scans from per-table statistics.
//
// A Table maps typed records onto ordinary kv keys. Row keys live in the
// user keyspace ('r' ‖ table-name ‖ 0x00 ‖ ordered-encoded primary key),
// row values are a self-delimiting field codec, and every declared index
// is an index.Def whose entries the Table maintains inside the same
// Update closure as the row write — any engine makes the pair atomic for
// free. Because the ordered value codec is memcmp-comparable (encoded
// order = logical order) and prefix-free, a kv.Scan range cursor over
// the index namespace IS an ordered index scan, with no comparator
// plumbed anywhere.
//
// The same Table works over every kv.DB implementation — Local, the
// cluster, and the network client — because it speaks nothing but the DB
// contract.
package table

import (
	"bytes"
	"fmt"
	"strconv"
)

// Type identifies a field's type. The numeric order of the type tags is
// the cross-type sort order of the ordered codec (int64 < string <
// bytes), so composite keys mixing types still compare consistently.
type Type uint8

const (
	// TInt64 is a signed 64-bit integer field.
	TInt64 Type = iota + 1
	// TString is a UTF-8 (or arbitrary) string field.
	TString
	// TBytes is an opaque byte-string field.
	TBytes
)

// String names the type for schema listings and errors.
func (t Type) String() string {
	switch t {
	case TInt64:
		return "int64"
	case TString:
		return "string"
	case TBytes:
		return "bytes"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Value is one typed field value. The zero Value is invalid; construct
// with Int64, String, or Bytes.
type Value struct {
	t Type
	i int64
	b []byte // TString and TBytes payload
}

// Int64 returns an int64 Value.
func Int64(v int64) Value { return Value{t: TInt64, i: v} }

// String returns a string Value.
func String(s string) Value { return Value{t: TString, b: []byte(s)} }

// Type returns the value's type (0 for the invalid zero Value).
func (v Value) Type() Type { return v.t }

// Int returns the int64 payload; it is 0 for non-integer values.
func (v Value) Int() int64 { return v.i }

// Text returns the string payload; it is "" for non-string values.
func (v Value) Text() string {
	if v.t != TString {
		return ""
	}
	return string(v.b)
}

// String renders the value for EXPLAIN strings and the minisql REPL.
func (v Value) String() string {
	switch v.t {
	case TInt64:
		return strconv.FormatInt(v.i, 10)
	case TString:
		return strconv.Quote(string(v.b))
	case TBytes:
		return fmt.Sprintf("x'%x'", v.b)
	default:
		return "<invalid>"
	}
}

// Compare orders two values: by type tag first (matching the ordered
// codec's cross-type order), then by payload — numeric order for TInt64,
// lexicographic byte order for TString/TBytes. The result is identical
// to bytes.Compare of the two ordered encodings; TestOrderAgreement and
// FuzzRecordCodec pin that equivalence.
func (v Value) Compare(o Value) int {
	if v.t != o.t {
		if v.t < o.t {
			return -1
		}
		return 1
	}
	switch v.t {
	case TInt64:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	default:
		return bytes.Compare(v.b, o.b)
	}
}

// Equal reports whether the two values have the same type and payload.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }
