package store

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"testing"

	"rhtm"
	"rhtm/containers"
)

// The varlen codec (codec.go) is the boundary where []byte keys and values
// become simulated words; FuzzCodecRoundTrip hammers it with arbitrary
// payloads and the golden tests pin the exact encodings at the size-class
// boundaries, where an off-by-one in blockWords/classOf silently corrupts
// or over-allocates.

// codecSys builds a System just big enough to encode n payload bytes.
func codecSys(n int) (*rhtm.System, rhtm.Addr) {
	words := blockWords(n)
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(words + 64))
	return s, s.MustAlloc(words)
}

// keyRecord writes a record holding key (and no block) into a, for
// compareKey to probe.
func keyRecord(t testing.TB, a *Arena, key []byte) rhtm.Addr {
	t.Helper()
	rec, err := (&Store{arena: a}).newRecord(containers.SetupTx(a.sys), key, rhtm.NilAddr)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(""))
	f.Add([]byte("a"))
	f.Add([]byte("exactly8"))
	f.Add([]byte("nine byte"))
	f.Add(bytes.Repeat([]byte{0xff}, 55))
	f.Add(bytes.Repeat([]byte{0x00}, 56))
	f.Add(bytes.Repeat([]byte{0x7f}, 57))
	f.Add([]byte("\x00leading nul"))
	// The index orders by compareKey: its key-word boundaries (6/7/8,
	// 13/14/15, 20/21/22), embedded 0x00/0xFF next to the zero padding and
	// the marker, and a key that is a prefix of its own extension (every
	// input is probed with b+0x00).
	f.Add([]byte("six666"))
	f.Add([]byte("seven77"))
	f.Add([]byte("fourteen 14 14"))
	f.Add([]byte("fifteen fifteen"))
	f.Add([]byte("twenty-one 21 21 21 2"))
	f.Add([]byte("twenty-two 22 22 22 22"))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x08"))
	f.Add([]byte("pad\x00\x00\x00\x00\x00\xff\x00\xff\x00"))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\x00"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<12 {
			b = b[:1<<12]
		}
		s, a := codecSys(len(b))
		tx := containers.SetupTx(s)
		writeBytes(tx, a, b)
		got := readBytes(tx, a)
		if !bytes.Equal(got, b) {
			t.Fatalf("round trip: wrote %x, read %x", b, got)
		}
		// The order the index depends on: key words order as bytes.Compare,
		// and compareKey agrees with it from word 0 and from any word the two
		// keys share, for every pair drawn from the identical key, a mutated
		// first, middle and last byte, each truncation to a key word
		// boundary's neighbourhood, and a 0x00 / 0xFF extension — stored
		// either way round.
		keys := [][]byte{b, append(append([]byte(nil), b...), 0x00), append(append([]byte(nil), b...), 0xff)}
		for _, i := range []int{0, len(b) / 2, len(b) - 1} {
			if i >= 0 && i < len(b) {
				mut := append([]byte(nil), b...)
				mut[i] ^= 0x81
				keys = append(keys, mut)
			}
		}
		for _, n := range []int{0, 6, 7, 8, 13, 14, 15, len(b) / 2, len(b) - 1} {
			if n >= 0 && n < len(b) {
				keys = append(keys, b[:n])
			}
		}
		perKey := 1 << classOf(recordWords(len(b)+1))
		s = rhtm.MustNewSystem(rhtm.DefaultConfig(len(keys)*perKey + 128))
		tx = containers.SetupTx(s)
		arena := NewArena(s, len(keys)*perKey)
		for _, stored := range keys {
			rec := keyRecord(t, arena, stored)
			if got := loadKey(tx, rec+recKey, locLen(tx.Load(rec+recLocator))); !bytes.Equal(got, stored) {
				t.Fatalf("record key round trip: wrote %x, read %x", stored, got)
			}
			for _, p := range keys {
				want := bytes.Compare(p, stored)
				order, shared := wordOrder(p, stored)
				if order != want {
					t.Fatalf("key words of %x and %x order %d, bytes.Compare %d", p, stored, order, want)
				}
				got, same := compareKey(tx, p, rec, 0)
				if got != want || same != shared {
					t.Fatalf("compareKey(%x, %x) = %d sharing %d words, want %d sharing %d", p, stored, got, same, want, shared)
				}
				for m := 1; m <= min(shared, keyWords(len(p))-1); m++ {
					if c, sm := compareKey(tx, p, rec, m); c != got || sm != same {
						t.Fatalf("compareKey(%x, %x) from word %d = %d sharing %d, from 0 = %d sharing %d", p, stored, m, c, sm, got, same)
					}
				}
			}
		}
	})
}

// wordOrder compares two keys' key words as integers, one word at a time,
// and returns the order and how many leading words are equal. Equal words
// that say no more follow end both keys.
func wordOrder(p, q []byte) (int, int) {
	for i := 0; ; i++ {
		a, b := keyWord(p, i), keyWord(q, i)
		if a != b {
			return cmp.Compare(a, b), i
		}
		if a&0xff != moreMarker {
			return 0, i + 1
		}
	}
}

// TestCodecGoldenVectors pins the exact word-level encoding at the
// word-packing boundaries: length word first, payload packed little-endian
// eight bytes per word, last word zero-padded.
func TestCodecGoldenVectors(t *testing.T) {
	cases := []struct {
		payload []byte
		words   []uint64 // expected block contents, length word included
	}{
		{nil, []uint64{0}},
		{[]byte{0xab}, []uint64{1, 0xab}},
		{[]byte("8bytes!!"), []uint64{8, 0x2121736574796238}},
		{[]byte("9 bytes!!"), []uint64{9, 0x2173657479622039, 0x21}},
		{bytes.Repeat([]byte{0xff}, 16), []uint64{16, ^uint64(0), ^uint64(0)}},
	}
	for _, c := range cases {
		s, a := codecSys(len(c.payload))
		tx := containers.SetupTx(s)
		writeBytes(tx, a, c.payload)
		if got := blockWords(len(c.payload)); got != len(c.words) {
			t.Fatalf("%q: blockWords = %d, want %d", c.payload, got, len(c.words))
		}
		for i, want := range c.words {
			if got := s.Peek(a + rhtm.Addr(i)); got != want {
				t.Fatalf("%q word %d = %#x, want %#x", c.payload, i, got, want)
			}
		}
	}
	// Size-class boundaries: a block of exactly 1<<c words stays in class c;
	// one more word moves up a class (doubling the allocation).
	for _, c := range []int{1, 2, 3, 4, 8} {
		if got := classOf(1 << c); got != c {
			t.Fatalf("classOf(%d) = %d, want %d", 1<<c, got, c)
		}
		if got := classOf(1<<c + 1); got != c+1 {
			t.Fatalf("classOf(%d) = %d, want %d", 1<<c+1, got, c+1)
		}
	}
}

// TestCodecTooLargeEdge pins the ErrTooLarge boundary exactly: the largest
// class is 1<<(numClasses-1) words, so the largest encodable payload is
// (1<<(numClasses-1) - 1) * 8 bytes; one byte more must fail with
// ErrTooLarge (and not ErrArenaFull, which would suggest retrying could
// help).
func TestCodecTooLargeEdge(t *testing.T) {
	maxWords := 1 << (numClasses - 1)
	maxPayload := (maxWords - 1) * 8
	if got := blockWords(maxPayload); got != maxWords {
		t.Fatalf("blockWords(max) = %d, want %d", got, maxWords)
	}
	if got := blockWords(maxPayload + 1); got != maxWords+1 {
		t.Fatalf("blockWords(max+1) = %d, want %d", got, maxWords+1)
	}

	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	arena := NewArena(s, 1<<16+64)
	tx := containers.SetupTx(s)
	if _, err := arena.TxAlloc(tx, blockWords(maxPayload)); err != nil {
		t.Fatalf("largest-class alloc refused: %v", err)
	}
	_, err := arena.TxAlloc(tx, blockWords(maxPayload+1))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-max alloc err = %v, want ErrTooLarge", err)
	}
	if errors.Is(err, ErrArenaFull) {
		t.Fatal("over-max alloc also matches ErrArenaFull")
	}

	// The same boundary surfaces through the store's Put, wrapped so
	// errors.Is works end to end.
	st := New(s, Options{ArenaWords: 1 << 10})
	if err := st.Put(tx, []byte("k"), make([]byte, maxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("store Put over-max err = %v, want ErrTooLarge", err)
	}
	if msg := fmt.Sprint(err); msg == "" {
		t.Fatal("empty error message")
	}
}
