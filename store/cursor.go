package store

import (
	"bytes"

	"rhtm"
)

// Cursor is an ordered read of [start, end) inside one transaction — the
// only ordered-read mechanism above the per-store index. It keeps one
// resumable position per source store (a Store is the one-source case, a
// Sharded has one per shard) and merges the sources by key, so a range that
// hash partitioning scattered over every shard is read once: an entry a
// source has read stays buffered until the merge yields it, and a source
// reads again only when its buffer runs dry, resuming at the successor of
// the last key it read.
//
// Every read runs in the caller's transaction at the moment Next needs it:
// a cursor opened after the transaction's own writes observes them, and one
// the caller interleaves with writes sees, per source, the state at that
// source's latest read. The reads join the transaction's footprint like any
// other, so what the cursor yielded is validated at commit.
type Cursor struct {
	tx   rhtm.Tx
	end  []byte
	hint int      // entries the caller still expects to take; <= 0 unknown
	srcs []source // sources that may still hold unyielded entries
	cur  entry
}

type entry struct{ key, value []byte }

// source is one store's position: buf[pos:] is read but not yet yielded,
// from is where the next read resumes, more whether there is one to make.
type source struct {
	st   *Store
	buf  []entry
	pos  int
	from []byte
	more bool
}

// maxRead caps the entries one source read fetches per index descent: large
// enough that the descent is a small share of an unbounded drain, small
// enough that a caller who stops early has over-read little.
const maxRead = 32

// Cursor opens an ordered read of the entries with start <= key < end (nil
// bounds are unbounded). hint is how many entries the caller expects to
// take, 0 when it does not know; it sizes the reads and bounds nothing —
// the cursor yields the whole range to a caller who keeps calling Next.
func (st *Store) Cursor(tx rhtm.Tx, start, end []byte, hint int) *Cursor {
	return &Cursor{tx: tx, end: end, hint: hint,
		srcs: []source{{st: st, from: start, more: true}}}
}

// Cursor opens an ordered read across all shards (see Store.Cursor).
func (sh *Sharded) Cursor(tx rhtm.Tx, start, end []byte, hint int) *Cursor {
	c := &Cursor{tx: tx, end: end, hint: hint, srcs: make([]source, len(sh.shards))}
	// With a hint every shard's first read has a known size: one allocation
	// holds them all, so a short probe costs the same few host allocations
	// however many shards it fans out over.
	first := 0
	if hint > 0 {
		first = share(hint, len(sh.shards))
	}
	bufs := make([]entry, first*len(sh.shards))
	for i, st := range sh.shards {
		c.srcs[i] = source{st: st, from: start, more: true, buf: bufs[i*first : i*first : (i+1)*first]}
	}
	return c
}

// share is one source's even share of hint entries over n sources, at most
// maxRead.
func share(hint, n int) int { return min((hint+n-1)/n, maxRead) }

// Next advances to the smallest unyielded key across the sources, reading
// from any source whose buffer is empty first, and reports whether there
// was one.
func (c *Cursor) Next() bool {
	var best *source
	for i := 0; i < len(c.srcs); i++ {
		s := &c.srcs[i]
		if s.pos == len(s.buf) {
			if s.more {
				c.read(s)
			}
			if s.pos == len(s.buf) { // exhausted: drop it from the merge
				c.srcs = append(c.srcs[:i], c.srcs[i+1:]...)
				i--
				continue
			}
		}
		if best == nil || bytes.Compare(s.buf[s.pos].key, best.buf[best.pos].key) < 0 {
			best = s
		}
	}
	if best == nil {
		return false
	}
	c.cur = best.buf[best.pos]
	best.pos++
	c.hint--
	return true
}

// Key returns the current entry's key, a private copy decoded from
// simulated memory.
func (c *Cursor) Key() []byte { return c.cur.key }

// Value returns the current entry's value, a private copy likewise.
func (c *Cursor) Value() []byte { return c.cur.value }

// read refills s with its next entries. The size is the growth rule: while
// the caller's hint has entries outstanding, an even share of them per live
// source — hash partitioning spreads a range evenly, so the shares add up to
// about what the caller will take, and a source that runs dry early asks for
// its share of the smaller remainder; past the hint or without one, maxRead.
func (c *Cursor) read(s *source) {
	want := maxRead
	if c.hint > 0 {
		want = share(c.hint, len(c.srcs))
	}
	s.buf, s.pos = s.buf[:0], 0
	s.st.ScanLimitRev(c.tx, s.from, c.end, want, func(k, v []byte, _ uint64) bool {
		s.buf = append(s.buf, entry{k, v})
		return true
	})
	if s.more = len(s.buf) == want; s.more {
		// The successor of a key in bytewise order is the key with 0x00
		// appended: the next read starts strictly after this one's last.
		last := s.buf[want-1].key
		s.from = append(append(make([]byte, 0, len(last)+1), last...), 0)
	}
}
