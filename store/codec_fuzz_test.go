package store

import (
	"bytes"
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
	// The index orders by compareKey: its word boundaries (7/8/9, 15/16/17),
	// embedded 0x00/0xFF next to the zero padding, and a key that is a
	// prefix of its own extension (every input is probed with b+0x00).
	f.Add([]byte("seven77"))
	f.Add([]byte("fifteen fifteen"))
	f.Add([]byte("sixteen  sixteen"))
	f.Add([]byte("seventeen seventy"))
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
		// The order the index depends on: compareKey agrees with
		// bytes.Compare for every pair drawn from the identical key, a
		// mutated first, middle and last byte, each truncation to a word
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
		for _, n := range []int{0, 7, 8, 9, len(b) / 2, len(b) - 1} {
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
			if got := loadWords(tx, rec+recKey, locLen(tx.Load(rec+recLocator))); !bytes.Equal(got, stored) {
				t.Fatalf("record key round trip: wrote %x, read %x", stored, got)
			}
			for _, p := range keys {
				if got, want := compareKey(tx, p, rec), bytes.Compare(p, stored); got != want {
					t.Fatalf("compareKey(%x, %x) = %d, want %d", p, stored, got, want)
				}
			}
		}
	})
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
