package store

import (
	"cmp"
	"encoding/binary"

	"rhtm"
)

// Varlen block encoding: word 0 holds the payload length in bytes; the
// following ceil(len/8) words hold the payload packed little-endian, eight
// bytes per word, with the last word zero-padded. The whole repository's
// transactional substrate is 64-bit words, so this codec is the boundary
// where []byte keys and values become simulated memory. Values and intent
// payloads are blocks; a key is packed otherwise, in self-delimiting key
// words inside its record (below, and the layout in store.go).

// blockWords returns the block size in words for n payload bytes.
func blockWords(n int) int { return 1 + (n+7)/8 }

// writeBytes encodes b into the block at a (which must span blockWords(len(b))
// words) under tx.
func writeBytes(tx rhtm.Tx, a rhtm.Addr, b []byte) {
	tx.Store(a, uint64(len(b)))
	for i := 0; i < len(b); i += 8 {
		tx.Store(a+1+rhtm.Addr(i/8), wordAt(b[i:]))
	}
}

// readBytes decodes the block at a under tx into a fresh slice.
func readBytes(tx rhtm.Tx, a rhtm.Addr) []byte {
	b := appendBytes(nil, tx, a)
	return b[:len(b):len(b)]
}

// appendBytes decodes the block at a under tx onto the end of dst, which a
// caller may reuse from call to call. The result is never nil: an empty
// value read is present, unlike an absent one.
func appendBytes(dst []byte, tx rhtm.Tx, a rhtm.Addr) []byte {
	n, m := int(tx.Load(a)), len(dst)
	w := (n + 7) &^ 7 // the words are decoded whole
	if dst == nil || cap(dst)-m < w {
		grown := make([]byte, m, m+w)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:m+w]
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[m+i:], tx.Load(a+1+rhtm.Addr(i/8)))
	}
	return dst[:m+n]
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

// Key words: a record's key is packed seven bytes a word, most significant
// first, over a marker byte in the low eight bits — moreMarker when more
// bytes follow, otherwise how many bytes the word holds (0..7). Two words then
// order as plain integers exactly as the bytes they hold do: a byte that
// differs outranks the marker, and on a tie the marker puts the key that ends
// first — the prefix — first. Each word says whether another follows, so a
// compare walks the words without loading the key's length, and no key's word
// sequence is a proper prefix of another's: two keys either differ at some
// word or are equal.
const (
	keyWordBytes = 7
	moreMarker   = 8
)

// keyWords returns how many words hold a key of n bytes; the empty key has
// one, so the word a compare reads first always exists.
func keyWords(n int) int { return max(1, (n+keyWordBytes-1)/keyWordBytes) }

// keyWord returns word i of key's encoding.
func keyWord(key []byte, i int) uint64 {
	b := key[min(keyWordBytes*i, len(key)):]
	if len(b) > keyWordBytes {
		return binary.BigEndian.Uint64(b)&^0xff | moreMarker
	}
	var tail [8]byte
	copy(tail[:], b)
	return binary.BigEndian.Uint64(tail[:]) | uint64(len(b))
}

// storeKey writes key's words at a.
func storeKey(tx rhtm.Tx, a rhtm.Addr, key []byte) {
	for i := 0; i < keyWords(len(key)); i++ {
		tx.Store(a+rhtm.Addr(i), keyWord(key, i))
	}
}

// loadKey decodes the n-byte key whose words are at a.
func loadKey(tx rhtm.Tx, a rhtm.Addr, n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += keyWordBytes {
		var w [8]byte
		binary.BigEndian.PutUint64(w[:], tx.Load(a+rhtm.Addr(i/keyWordBytes)))
		copy(b[i:], w[:keyWordBytes])
	}
	return b
}

// compareKey orders the probe key against the key in the record at rec, one
// integer compare per word, starting at word from: the caller knows the two
// keys share their first from words (containers.OrderedTree's descent), so
// they are not loaded again. It returns the order and how many leading words
// the keys share. The walk stops at the first word that differs, or at the
// probe's last word when it ties, so it never reads past either key's end.
func compareKey(tx rhtm.Tx, key []byte, rec rhtm.Addr, from int) (c, same int) {
	for i := from; ; i++ {
		p, s := keyWord(key, i), tx.Load(rec+recKey+rhtm.Addr(i))
		if p != s {
			return cmp.Compare(p, s), i
		}
		if p&0xff != moreMarker {
			return 0, i + 1
		}
	}
}
