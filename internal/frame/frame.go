// Package frame is the one binary codec of the repository's record
// formats: the network protocol's frames (server/wire), the write-ahead
// log's records (wal) and the lease records kv keeps in its reserved
// keyspace.
//
// The envelope (all integers little-endian):
//
//	offset 0  u32  body length B (BodyHeaderSize <= B <= MaxBody)
//	offset 4  u32  CRC-32C over the body
//	offset 8  B bytes of body: u64 id (wire: request id; WAL: LSN),
//	          u8 kind, u8 flags, then the format's payload
//
// Begin and Seal write one; Open tells a buffer that ends inside the frame
// (the format's Torn error) from a whole frame with a bad length word or
// checksum (its Corrupt error).
//
// The Codec. A format writes its layout once, as a walk that calls one
// Codec method per field with a pointer to it: an encoding Codec appends
// the field, a decoding one fills it. Decoding is strict: a length is
// bounded by the bytes left before anything is sliced or allocated, Done
// requires the walk to consume its input exactly, and the first failure
// sticks, so a walk checks nothing between fields. Decoded byte fields are
// windows on the input, each clipped to its own length: never decode from
// a buffer you will rewrite.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Envelope sizes and the body bound.
const (
	// HeaderSize is the length word plus the CRC.
	HeaderSize = 8
	// BodyHeaderSize is the id, kind and flags every body opens with.
	BodyHeaderSize = 10
	// MaxBody bounds a body, so that a corrupt length word fails fast
	// instead of allocating gigabytes.
	MaxBody = 1 << 26
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// nilLen is the length word Bytes writes for a nil field, distinct from
// an empty one.
const nilLen = ^uint32(0)

// Format names one record format's errors, so that a failure of the
// envelope or the Codec matches that format's own sentinels under
// errors.Is.
type Format struct {
	// Torn: the buffer ends inside the frame.
	Torn error
	// Corrupt: the frame is whole, but its checksum, a length or a field
	// is impossible, or bytes are left over.
	Corrupt error
	// TooLarge: an encoded body exceeds MaxBody.
	TooLarge error
}

// Codec runs a layout walk in one direction. The zero value is not usable:
// Begin, Open, Marshal and Unmarshal make one.
type Codec struct {
	buf   []byte // encoding: the output; decoding: the bytes not yet read
	start int    // encoding a frame: where its header begins
	dec   bool
	short bool // decoding: a field ran past the end
	f     *Format
	err   error
}

// Begin starts a frame at the end of dst: it appends the header
// placeholder and returns an encoding Codec whose walk writes the body,
// body header first. Seal finishes the frame.
func Begin(dst []byte, f *Format) Codec {
	return Codec{buf: append(dst, 0, 0, 0, 0, 0, 0, 0, 0), start: len(dst), f: f}
}

// Seal finishes the frame Begin started: it writes the body's length and
// CRC into the header and returns the extended buffer. It fails with the
// walk's error, or with the format's TooLarge error when the body exceeds
// MaxBody — a frame the reader would reject is refused at the source.
func (c *Codec) Seal() ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	body := c.buf[c.start+HeaderSize:]
	if len(body) > MaxBody {
		return nil, fmt.Errorf("%w: body %d bytes", c.f.TooLarge, len(body))
	}
	binary.LittleEndian.PutUint32(c.buf[c.start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(c.buf[c.start+4:], crc32.Checksum(body, crcTable))
	return c.buf, nil
}

// Len returns the size of the frame whose header starts b, header
// included, once its length word is checked against the body bounds.
func Len(b []byte, f *Format) (int, error) {
	if len(b) < HeaderSize {
		return 0, f.Torn
	}
	blen := binary.LittleEndian.Uint32(b)
	if blen < BodyHeaderSize || blen > MaxBody {
		return 0, fmt.Errorf("%w: body length %d", f.Corrupt, blen)
	}
	return HeaderSize + int(blen), nil
}

// Open checks the frame at the front of b and returns a decoding Codec
// over its body and the frame's size. The Torn error means b ends inside
// the frame; the Corrupt error means the frame is whole but its length
// word or checksum is wrong.
func Open(b []byte, f *Format) (Codec, int, error) {
	n, err := Len(b, f)
	if err != nil {
		return Codec{}, 0, err
	}
	if len(b) < n {
		return Codec{}, 0, f.Torn
	}
	body := b[HeaderSize:n]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return Codec{}, 0, fmt.Errorf("%w: checksum mismatch", f.Corrupt)
	}
	return Codec{buf: body, dec: true, f: f}, n, nil
}

// Marshal runs walk over an encoding Codec with no envelope and returns
// the bytes: the form of a value stored whole, like a lease record. It
// panics if the walk fails, which only a value no reader accepts can do.
func Marshal(walk func(c *Codec)) []byte {
	c := Codec{}
	walk(&c)
	if c.err != nil {
		panic(c.err)
	}
	return c.buf
}

// Unmarshal runs walk over a decoding Codec on b, which holds one value
// and no envelope, and returns Done's verdict.
func Unmarshal(b []byte, f *Format, walk func(c *Codec)) error {
	c := Codec{buf: b, dec: true, f: f}
	walk(&c)
	return c.Done()
}

// Fail stops the walk: decoding, with the format's Corrupt error;
// encoding, with an error naming a value no reader would accept. The first
// failure sticks, and a failed decode drops the bytes it had left, so every
// later read finds none and changes nothing.
func (c *Codec) Fail(format string, args ...any) {
	if c.err != nil {
		return
	}
	if c.dec {
		c.err = fmt.Errorf("%w: "+format, append([]any{c.f.Corrupt}, args...)...)
		c.buf = nil
	} else {
		c.err = fmt.Errorf("frame: cannot encode: "+format, args...)
	}
}

// Done ends the walk and returns its first failure. Decoding, a field cut
// short and bytes the walk left unread are failures too.
func (c *Codec) Done() error {
	if c.short {
		c.Fail("truncated payload")
	} else if c.dec && len(c.buf) != 0 {
		c.Fail("%d trailing payload bytes", len(c.buf))
	}
	return c.err
}

// The field methods are written to inline into a walk: one branch on the
// direction, one on the bytes left, and no call on either path. A read past
// the end drops what is left and marks the decode short; Done reports it.

// U8 walks one byte.
func (c *Codec) U8(v *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if len(c.buf) >= 1 {
		*v, c.buf = c.buf[0], c.buf[1:]
	} else {
		c.buf, c.short = nil, true
	}
}

// U32 walks one little-endian u32.
func (c *Codec) U32(v *uint32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if len(c.buf) >= 4 {
		*v, c.buf = binary.LittleEndian.Uint32(c.buf), c.buf[4:]
	} else {
		c.buf, c.short = nil, true
	}
}

// U64 walks one little-endian u64.
func (c *Codec) U64(v *uint64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if len(c.buf) >= 8 {
		*v, c.buf = binary.LittleEndian.Uint64(c.buf), c.buf[8:]
	} else {
		c.buf, c.short = nil, true
	}
}

// Bytes walks a byte field that keeps nil apart from empty: a u32 length,
// 0xFFFFFFFF for nil, then the bytes.
func (c *Codec) Bytes(v *[]byte) {
	switch {
	case c.dec:
		if n := c.length(); n != nilLen && c.err == nil {
			*v = c.field(n)
		}
	case *v == nil:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, nilLen)
	default:
		put(c, *v)
	}
}

// Blob walks a byte field with a plain u32 length; empty decodes as nil.
func (c *Codec) Blob(v *[]byte) {
	if !c.dec {
		put(c, *v)
	} else if n := c.length(); n > 0 {
		*v = c.field(n)
	}
}

// Str walks a string with a plain u32 length. Decoding copies it out of
// the buffer.
func (c *Codec) Str(v *string) {
	if !c.dec {
		put(c, *v)
	} else if n := c.length(); n > 0 {
		*v = string(c.field(n))
	}
}

// put appends a length-prefixed field.
func put[T string | []byte](c *Codec, v T) {
	c.buf = append(binary.LittleEndian.AppendUint32(c.buf, uint32(len(v))), v...)
}

// length reads a field's length word; 0 if the decode has failed.
func (c *Codec) length() uint32 {
	var n uint32
	c.U32(&n)
	return n
}

// field takes the n-byte window a length word announced.
func (c *Codec) field(n uint32) []byte {
	// Compare in uint64: int(n) would go negative on 32-bit platforms for
	// lengths past MaxInt32 and slip the bound check into a slice panic.
	if uint64(n) > uint64(len(c.buf)) {
		c.buf, c.short = nil, true
		return nil
	}
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

// Count walks a list length as a u32: encoding, n; decoding, the length
// read, bounded by the bytes left over minElem, the smallest encoding of
// one element, so a corrupt count fails before the list is allocated.
func (c *Codec) Count(n, minElem int) int {
	v := uint32(n)
	c.U32(&v)
	return c.bound(uint64(v), minElem)
}

// Count64 is Count with a u64 length word.
func (c *Codec) Count64(n, minElem int) int {
	v := uint64(n)
	c.U64(&v)
	return c.bound(v, minElem)
}

func (c *Codec) bound(n uint64, minElem int) int {
	if c.dec && n > uint64(len(c.buf)/minElem) { // uint64: see field
		c.Fail("count %d exceeds %d payload bytes", n, len(c.buf))
		return 0
	}
	return int(n)
}

// Slice sizes a walked list: encoding, it returns s; decoding, n zero
// elements for the walk to fill, nil when n is 0. n comes from Count.
func Slice[T any](c *Codec, s []T, n int) []T {
	if !c.dec {
		return s
	}
	if n == 0 {
		return nil
	}
	return make([]T, n)
}
