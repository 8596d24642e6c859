package frame

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

var (
	errTorn     = errors.New("test: torn")
	errCorrupt  = errors.New("test: corrupt")
	errTooLarge = errors.New("test: too large")
	testFormat  = Format{Torn: errTorn, Corrupt: errCorrupt, TooLarge: errTooLarge}
)

// rec exercises every Codec method in one layout.
type rec struct {
	id          uint64
	kind, flags uint8
	small       uint8
	word        uint32
	big         uint64
	nilable     []byte
	empty       []byte
	blob        []byte
	text        string
	list        [][]byte
	wide        []uint64
}

func (r *rec) walk(c *Codec) {
	c.U64(&r.id)
	c.U8(&r.kind)
	c.U8(&r.flags)
	c.U8(&r.small)
	c.U32(&r.word)
	c.U64(&r.big)
	c.Bytes(&r.nilable)
	c.Bytes(&r.empty)
	c.Blob(&r.blob)
	c.Str(&r.text)
	r.list = Slice(c, r.list, c.Count(len(r.list), 4))
	for i := range r.list {
		c.Bytes(&r.list[i])
	}
	r.wide = Slice(c, r.wide, c.Count64(len(r.wide), 8))
	for i := range r.wide {
		c.U64(&r.wide[i])
	}
}

func encode(t *testing.T, r rec) []byte {
	t.Helper()
	c := Begin([]byte("prefix"), &testFormat)
	r.walk(&c)
	b, err := c.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return b[len("prefix"):]
}

func decode(b []byte) (rec, int, error) {
	c, n, err := Open(b, &testFormat)
	if err != nil {
		return rec{}, 0, err
	}
	var r rec
	r.walk(&c)
	return r, n, c.Done()
}

// TestCodecRoundTrip: one walk encodes and decodes every field kind, nil
// and empty byte fields stay apart under Bytes, and Blob decodes empty as
// nil.
func TestCodecRoundTrip(t *testing.T) {
	in := rec{
		id: 1 << 60, kind: 3, flags: 0x81, small: 7, word: 0xdeadbeef, big: 42,
		nilable: nil, empty: []byte{}, blob: []byte("blob"), text: "text",
		list: [][]byte{[]byte("a"), nil, {}}, wide: []uint64{1, 2, 3},
	}
	frame := encode(t, in)
	got, n, err := decode(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("decode: n=%d of %d, err %v", n, len(frame), err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, in)
	}
	if again := encode(t, got); !bytes.Equal(again, frame) {
		t.Fatalf("re-encode differs:\n % x\n % x", again, frame)
	}
	// Empty lists and an empty blob decode as nil.
	got, _, err = decode(encode(t, rec{list: [][]byte{}, blob: []byte{}}))
	if err != nil || got.list != nil || got.wide != nil || got.blob != nil {
		t.Fatalf("empty fields: %#v, %v", got, err)
	}
}

// TestCodecDecodesInPlace: decoded byte fields are windows on the frame,
// clipped to their own length, and a whole-frame decode allocates only
// the lists it returns.
func TestCodecDecodesInPlace(t *testing.T) {
	frame := encode(t, rec{nilable: []byte("key"), blob: []byte("value")})
	r, _, err := decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.Index(frame, []byte("key")); &r.nilable[0] != &frame[i] || cap(r.nilable) != 3 {
		t.Errorf("Bytes field is not a clipped window on the frame")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := decode(frame); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decode: %v allocs, want 0", allocs)
	}
}

// reseal refits the header of a frame whose body was rewritten, so the
// failure a test provokes is the layout's, not the checksum's.
func reseal(body []byte) []byte {
	c := Begin(nil, &testFormat)
	c.buf = append(c.buf, body...)
	b, err := c.Seal()
	if err != nil {
		panic(err)
	}
	return b
}

// TestCodecRejects: every impossible length or leftover is the format's
// Corrupt error, and a failed decode leaves later fields untouched.
func TestCodecRejects(t *testing.T) {
	good := encode(t, rec{nilable: []byte("key"), list: [][]byte{[]byte("x")}})
	body := good[HeaderSize:]
	at := BodyHeaderSize + 1 + 4 + 8 // the nilable field's length word
	set := func(off int, v ...byte) []byte {
		b := append([]byte(nil), body...)
		copy(b[off:], v)
		return reseal(b)
	}
	cases := map[string][]byte{
		"truncated":          reseal(body[:len(body)-3]),
		"trailing bytes":     reseal(append(append([]byte(nil), body...), 0xEE)),
		"length past end":    set(at, 0xff, 0, 0, 0),
		"wraparound length":  set(at, 0xfe, 0xff, 0xff, 0xff),
		"count past the end": set(len(body)-8-5-4, 0xff, 0xff, 0xff, 0x7f),
		"missing body head":  reseal(body[:BodyHeaderSize-1]),
	}
	for name, frame := range cases {
		if _, _, err := decode(frame); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: err = %v, want the Corrupt error", name, err)
		}
	}
	// After the first failure every call is a no-op.
	c := Codec{buf: []byte{1, 2}, dec: true, f: &testFormat}
	v := uint64(99)
	c.U64(&v)
	w := uint8(99)
	c.U8(&w)
	if v != 99 || w != 99 || !errors.Is(c.Done(), errCorrupt) {
		t.Errorf("sticky failure: v=%d w=%d err=%v", v, w, c.err)
	}
}

// TestEnvelope: Open tells a frame cut short (Torn) from a whole frame
// that is damaged (Corrupt), and Seal refuses a body over MaxBody.
func TestEnvelope(t *testing.T) {
	frame := encode(t, rec{id: 5, text: "hello"})
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := Open(frame[:cut], &testFormat); err != errTorn {
			t.Fatalf("cut at %d: err = %v, want Torn", cut, err)
		}
	}
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		if _, _, err := decode(mut); err == nil || (i >= HeaderSize && !errors.Is(err, errCorrupt)) {
			t.Fatalf("byte %d flipped: err = %v", i, err)
		}
	}
	for _, blen := range []byte{BodyHeaderSize - 1, 0} {
		hdr := []byte{blen, 0, 0, 0, 0, 0, 0, 0}
		if _, err := Len(hdr, &testFormat); !errors.Is(err, errCorrupt) {
			t.Errorf("body length %d: err = %v, want Corrupt", blen, err)
		}
	}
	if _, err := Len([]byte{0x01, 0, 0, 0x04, 0, 0, 0, 0}, &testFormat); !errors.Is(err, errCorrupt) {
		t.Errorf("body length over MaxBody: err = %v, want Corrupt", err)
	}
	c := Begin(nil, &testFormat)
	big := make([]byte, MaxBody)
	c.Blob(&big)
	if _, err := c.Seal(); !errors.Is(err, errTooLarge) {
		t.Errorf("oversized body: err = %v, want TooLarge", err)
	}
}

// TestCodecBareValues: Marshal and Unmarshal run a walk with no envelope,
// Unmarshal as strictly as Open, and a walk that fails while encoding
// fails Seal and panics Marshal.
func TestCodecBareValues(t *testing.T) {
	walk := func(v *rec) func(*Codec) {
		return func(c *Codec) {
			c.U64(&v.big)
			c.Blob(&v.blob)
		}
	}
	in := rec{big: 9, blob: []byte("b")}
	b := Marshal(walk(&in))
	if want := []byte{9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'b'}; !bytes.Equal(b, want) {
		t.Fatalf("Marshal = % x, want % x", b, want)
	}
	var out rec
	if err := Unmarshal(b, &testFormat, walk(&out)); err != nil || out.big != 9 || string(out.blob) != "b" {
		t.Fatalf("Unmarshal: %#v, %v", out, err)
	}
	if err := Unmarshal(b[:len(b)-1], &testFormat, walk(&out)); !errors.Is(err, errCorrupt) {
		t.Fatalf("Unmarshal of a cut value: err = %v, want Corrupt", err)
	}

	bad := func(c *Codec) { c.Fail("no such kind %d", 7) }
	c := Begin(nil, &testFormat)
	bad(&c)
	if _, err := c.Seal(); err == nil || errors.Is(err, errCorrupt) {
		t.Errorf("Seal after an encode failure: err = %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Marshal of a failing walk did not panic")
		}
	}()
	Marshal(bad)
}
