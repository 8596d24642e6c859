package store

import (
	"cmp"
	"encoding/binary"
	"math/bits"

	"rhtm"
)

// Varlen block encoding: word 0 holds the payload length in bytes; the
// following ceil(len/8) words hold the payload packed little-endian, eight
// bytes per word, with the last word zero-padded. The whole repository's
// transactional substrate is 64-bit words, so this codec is the boundary
// where []byte keys and values become simulated memory. Values and intent
// payloads are blocks; a key is the same packed words without the length
// word, inside its record (see the layout in store.go).

// blockWords returns the block size in words for n payload bytes.
func blockWords(n int) int { return 1 + (n+7)/8 }

// writeBytes encodes b into the block at a (which must span blockWords(len(b))
// words) under tx.
func writeBytes(tx rhtm.Tx, a rhtm.Addr, b []byte) {
	tx.Store(a, uint64(len(b)))
	storeWords(tx, a+1, b, (len(b)+7)/8)
}

// readBytes decodes the block at a under tx.
func readBytes(tx rhtm.Tx, a rhtm.Addr) []byte {
	return loadWords(tx, a+1, int(tx.Load(a)))
}

// storeWords packs b into the n words at a, zero-padded; n is at least
// ceil(len(b)/8).
func storeWords(tx rhtm.Tx, a rhtm.Addr, b []byte, n int) {
	for i := 0; i < n; i++ {
		tx.Store(a+rhtm.Addr(i), wordAt(b[min(8*i, len(b)):]))
	}
}

// loadWords unpacks n bytes from the words at a.
func loadWords(tx rhtm.Tx, a rhtm.Addr, n int) []byte {
	b := make([]byte, (n+7)&^7)
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], tx.Load(a+rhtm.Addr(i/8)))
	}
	return b[:n:n]
}

// wordAt packs the first eight bytes of b, zero-padded when it is shorter.
func wordAt(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var tail [8]byte
	copy(tail[:], b)
	return binary.LittleEndian.Uint64(tail[:])
}

// compareKey orders the probe key against the key in the record at rec,
// lexicographically, one integer compare per word, stopping at the first
// differing word. Two zero-padded words that differ order as their keys do —
// byte-reversed, the first differing byte is the most significant, and
// padding against a real byte means the shorter key is a prefix of the
// longer — so the stored length is loaded only once the first word has tied:
// it bounds the rest of the walk and breaks the tie between a key and its
// zero-extended prefix.
func compareKey(tx rhtm.Tx, key []byte, rec rhtm.Addr) int {
	if c := compareWord(wordAt(key), tx.Load(rec+recKey)); c != 0 {
		return c
	}
	n := locLen(tx.Load(rec + recLocator))
	for i := 8; i < min(len(key), n); i += 8 {
		if c := compareWord(wordAt(key[i:]), tx.Load(rec+recKey+rhtm.Addr(i/8))); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(key), n)
}

// compareWord orders two packed words as the bytes they hold.
func compareWord(p, s uint64) int {
	return cmp.Compare(bits.ReverseBytes64(p), bits.ReverseBytes64(s))
}
