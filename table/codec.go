package table

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The ordered codec: every Value encodes to a byte string such that
// bytes.Compare(enc(a), enc(b)) == a.Compare(b), and every encoding is
// prefix-free (no encoding is a prefix of another), so concatenated
// composite keys — index entry keys, primary keys — compare field by
// field and decode unambiguously.
//
// Layout: one type-tag byte, then
//
//	int64   8 bytes big-endian with the sign bit flipped
//	        (two's-complement order becomes unsigned byte order)
//	string  payload with 0x00 escaped to 0x00 0xFF, then the
//	bytes   terminator 0x00 0x01
//
// The escape keeps order: an in-payload 0x00 encodes as 0x00 0xFF which
// is greater than the terminator 0x00 0x01, so "a" < "a\x00b" holds in
// the encoding exactly as it does logically; any byte >= 0x01 compares
// against the terminator's 0x00 first and wins, so "a" < "ab" holds too.
// The terminator makes the encoding self-delimiting, which is what lets
// an index entry key carry value ‖ primary-key with no length prefix.

// Ordered-codec type tags. Their numeric order IS the cross-type sort
// order (and matches the Type constants' order).
const (
	tagInt64  = 0x10
	tagString = 0x20
	tagBytes  = 0x30
)

// escape and terminator bytes of the string/bytes encoding.
const (
	escByte  = 0x00
	escAfter = 0xFF // 0x00 in the payload → 0x00 0xFF
	termByte = 0x01 // end of payload     → 0x00 0x01
)

// ErrBadEncoding reports a byte string that is not a valid ordered
// encoding (unknown tag, truncated payload, or bad escape).
var ErrBadEncoding = errors.New("table: invalid ordered encoding")

// AppendOrdered appends v's ordered encoding to dst and returns the
// extended slice.
func AppendOrdered(dst []byte, v Value) []byte {
	switch v.t {
	case TInt64:
		dst = append(dst, tagInt64)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.i)^(1<<63))
		return append(dst, buf[:]...)
	case TString, TBytes:
		if v.t == TString {
			dst = append(dst, tagString)
		} else {
			dst = append(dst, tagBytes)
		}
		for _, b := range v.b {
			if b == escByte {
				dst = append(dst, escByte, escAfter)
			} else {
				dst = append(dst, b)
			}
		}
		return append(dst, escByte, termByte)
	default:
		panic(fmt.Sprintf("table: AppendOrdered of invalid Value (type %d)", v.t))
	}
}

// DecodeOrdered decodes one ordered-encoded value from the front of b,
// returning the value and the remaining bytes. It inverts AppendOrdered
// exactly; anything else fails with ErrBadEncoding.
func DecodeOrdered(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, fmt.Errorf("%w: empty input", ErrBadEncoding)
	}
	switch b[0] {
	case tagInt64:
		if len(b) < 9 {
			return Value{}, nil, fmt.Errorf("%w: truncated int64", ErrBadEncoding)
		}
		u := binary.BigEndian.Uint64(b[1:9]) ^ (1 << 63)
		return Int64(int64(u)), b[9:], nil
	case tagString, tagBytes:
		payload := make([]byte, 0, len(b))
		rest := b[1:]
		for {
			if len(rest) == 0 {
				return Value{}, nil, fmt.Errorf("%w: unterminated payload", ErrBadEncoding)
			}
			c := rest[0]
			if c != escByte {
				payload = append(payload, c)
				rest = rest[1:]
				continue
			}
			if len(rest) < 2 {
				return Value{}, nil, fmt.Errorf("%w: dangling escape", ErrBadEncoding)
			}
			switch rest[1] {
			case escAfter:
				payload = append(payload, escByte)
				rest = rest[2:]
			case termByte:
				rest = rest[2:]
				if b[0] == tagString {
					return Value{t: TString, b: payload}, rest, nil
				}
				return Value{t: TBytes, b: payload}, rest, nil
			default:
				return Value{}, nil, fmt.Errorf("%w: bad escape 0x00 0x%02x", ErrBadEncoding, rest[1])
			}
		}
	default:
		return Value{}, nil, fmt.Errorf("%w: unknown tag 0x%02x", ErrBadEncoding, b[0])
	}
}

// AppendTuple appends the ordered encodings of vals in order — the
// composite-key form used for primary keys and index entry keys.
func AppendTuple(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		dst = AppendOrdered(dst, v)
	}
	return dst
}

// DecodeTuple decodes exactly n ordered-encoded values from the front of
// b, returning them and the remaining bytes.
func DecodeTuple(b []byte, n int) ([]Value, []byte, error) {
	vals := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		v, rest, err := DecodeOrdered(b)
		if err != nil {
			return nil, nil, fmt.Errorf("tuple field %d: %w", i, err)
		}
		vals = append(vals, v)
		b = rest
	}
	return vals, b, nil
}

// The row codec: a Table stores a full record as the row value. Unlike
// the ordered codec it never needs to be memcmp-comparable, so it uses
// the compact form — per field: one type-tag byte, then 8 bytes fixed
// for int64 or a uvarint length + raw payload for string/bytes. Fields
// appear in schema order, all fields present (the layer has no NULLs).

// AppendRow appends the row encoding of vals to dst.
func AppendRow(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		switch v.t {
		case TInt64:
			dst = append(dst, tagInt64)
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(v.i))
			dst = append(dst, buf[:]...)
		case TString, TBytes:
			if v.t == TString {
				dst = append(dst, tagString)
			} else {
				dst = append(dst, tagBytes)
			}
			dst = binary.AppendUvarint(dst, uint64(len(v.b)))
			dst = append(dst, v.b...)
		default:
			panic(fmt.Sprintf("table: AppendRow of invalid Value (type %d)", v.t))
		}
	}
	return dst
}

// DecodeRow decodes exactly n row-encoded values, requiring the input to
// be fully consumed.
func DecodeRow(b []byte, n int) ([]Value, error) {
	vals := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		if len(b) == 0 {
			return nil, fmt.Errorf("%w: row truncated at field %d", ErrBadEncoding, i)
		}
		tag := b[0]
		b = b[1:]
		switch tag {
		case tagInt64:
			if len(b) < 8 {
				return nil, fmt.Errorf("%w: truncated int64 field %d", ErrBadEncoding, i)
			}
			vals = append(vals, Int64(int64(binary.BigEndian.Uint64(b[:8]))))
			b = b[8:]
		case tagString, tagBytes:
			l, m := binary.Uvarint(b)
			if m <= 0 || uint64(len(b)-m) < l {
				return nil, fmt.Errorf("%w: truncated payload field %d", ErrBadEncoding, i)
			}
			payload := make([]byte, l)
			copy(payload, b[m:m+int(l)])
			if tag == tagString {
				vals = append(vals, Value{t: TString, b: payload})
			} else {
				vals = append(vals, Value{t: TBytes, b: payload})
			}
			b = b[m+int(l):]
		default:
			return nil, fmt.Errorf("%w: unknown row tag 0x%02x at field %d", ErrBadEncoding, tag, i)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d fields", ErrBadEncoding, len(b), n)
	}
	return vals, nil
}
