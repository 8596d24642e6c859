package store

import (
	"rhtm"
)

// The commit-event log is the storage half of the kv layer's revision and
// watch machinery. Every Store owns one EventLog: a revision sequence word
// plus a bounded ring of event records, all in simulated memory, mutated
// only under the writer's own transaction. That placement is the whole
// design: because the append is transactional with the data mutation, an
// aborted attempt logs nothing, a committed transaction logs exactly once,
// and the log order of any two events for the same key equals their commit
// order — the engine's conflict detection (any engine's) serializes writers
// on the sequence word exactly as it serializes them on the data. No
// host-side ordering protocol is needed, and the substitution thesis
// extends to the event plumbing: hardware and software paths produce
// identical logs.
//
// The cost is equally explicit: all writers of one Store conflict on the
// sequence and head words, so revision-stamped writes serialize per Store.
// Sharded stores and cluster Systems each own independent logs (one
// revision clock per shard/System), which is what keeps the hot-spot
// per-partition instead of global — the same trade real coordination
// services make (etcd serializes every write through one raft log; this
// store serializes per shard). DESIGN.md §8 quantifies the overhead.
//
// Record layout (words, addressed modulo the ring capacity so records may
// wrap):
//
//	word 0  header: kind (bits 0..7) | value-elided flag (bit 8: the
//	        value was too large, or the ring was unwatched)
//	        | key bytes (bits 16..39) | value bytes (bits 40..63)
//	word 1  revision
//	then    ceil(keyBytes/8) key words, ceil(valueBytes/8) value words,
//	        packed little-endian like every varlen block (codec.go)
//
// head counts words ever appended (monotone); tail is the offset of the
// oldest fully retained record. Appends advance tail past whole records
// before overwriting them, so a reader positioned at or after tail always
// sees well-formed records. A put's value is elided when it would take
// more than a quarter of the ring, or when no watch streams the ring
// (watched is 0): only a watcher reads the copy, so an unwatched put logs
// kind, key and revision alone, and revisions stay dense. Keys too large
// drop the event entirely onto the dropped counter — a bounded-buffer fact
// the kv layer surfaces as an explicit loss marker rather than hiding.
//
// The watch hub raises watched in the same transaction that reads the head
// it streams from, so every append either serialized before that read (its
// record lies before the splice point) or read the raised count and
// carried its value; a writer in flight that loaded the old count
// conflicts on the word and re-executes. DESIGN.md §8 records the
// decision.

// EvKind classifies one logged event.
type EvKind uint8

const (
	// EvPut records a key's insert or overwrite.
	EvPut EvKind = iota
	// EvDelete records a key's removal.
	EvDelete
)

// Ev is one decoded commit event.
type Ev struct {
	Kind EvKind
	Key  []byte
	// Value is the written value for EvPut; nil when ValueElided or for
	// EvDelete.
	Value []byte
	// ValueElided reports a put whose value the ring does not carry: it was
	// too large for the ring, or no watch streamed the ring when it was
	// written.
	ValueElided bool
	// Rev is the revision the write was stamped with: the owning Store's
	// monotonic commit version. Per key, revisions strictly increase in log
	// order.
	Rev uint64
}

// DefaultLogWords sizes a store's event ring when Options.LogWords is zero.
const DefaultLogWords = 1 << 11

// minLogWords bounds LogWords from below so the ring can hold at least a
// handful of small records.
const minLogWords = 64

// EventLog is one store's revision clock and bounded commit-event ring.
type EventLog struct {
	sys     *rhtm.System
	seq     rhtm.Addr // one word: last assigned revision
	head    rhtm.Addr // one word: total words ever appended
	tail    rhtm.Addr // one word: offset of the oldest retained record
	dropped rhtm.Addr // one word: events skipped (key larger than the ring)
	floor   rhtm.Addr // one word: revision at or below which history is incomplete
	watched rhtm.Addr // one word: open watches streaming the ring (0 = elide values)
	buf     rhtm.Addr
	cap     int
}

// NewEventLog allocates a log of the given ring capacity (words) on s. Call
// during single-threaded setup.
func NewEventLog(s *rhtm.System, words int) *EventLog {
	if words <= 0 {
		words = DefaultLogWords
	}
	if words < minLogWords {
		words = minLogWords
	}
	// One line for all six: every append writes seq, head and tail together
	// and reads watched, so splitting them buys nothing, and the two rare
	// words ride along.
	clk := s.MustAllocLines(6)
	return &EventLog{
		sys:     s,
		seq:     clk,
		head:    clk + 1,
		tail:    clk + 2,
		dropped: clk + 3,
		floor:   clk + 4,
		watched: clk + 5,
		buf:     s.MustAlloc(words),
		cap:     words,
	}
}

// NextRev advances and returns the store's revision clock under tx. Every
// writer loads and stores the sequence word, which is what serializes
// concurrent writers of one Store and makes per-key revisions monotonic in
// commit order.
func (l *EventLog) NextRev(tx rhtm.Tx) uint64 {
	r := tx.Load(l.seq) + 1
	tx.Store(l.seq, r)
	return r
}

// AdvanceTo raises the revision clock to at least rev without assigning a
// revision — the recovery path's clock restore, so post-recovery writes
// continue the logged sequence instead of reusing revisions.
func (l *EventLog) AdvanceTo(tx rhtm.Tx, rev uint64) {
	if tx.Load(l.seq) < rev {
		tx.Store(l.seq, rev)
	}
}

// MarkHistoryFloor records that event history at or below rev cannot be
// trusted complete. Recovery calls it after replay: the rebuilt ring holds
// the replayed writes' events, but a checkpoint folds overwritten
// revisions and deletes away, so a watcher asking for replay from the
// recovered range must get an explicit loss marker rather than a silently
// thinned history.
func (l *EventLog) MarkHistoryFloor(tx rhtm.Tx, rev uint64) {
	if tx.Load(l.floor) < rev {
		tx.Store(l.floor, rev)
	}
}

// HistoryFloor returns the incomplete-history watermark (0 = the ring's
// whole retained history is genuine).
func (l *EventLog) HistoryFloor(tx rhtm.Tx) uint64 { return tx.Load(l.floor) }

// word returns the ring word backing monotone offset pos.
func (l *EventLog) word(pos uint64) rhtm.Addr {
	return l.buf + rhtm.Addr(pos%uint64(l.cap))
}

// header packing.
const (
	evKindMask    = 0xff
	evElidedBit   = 1 << 8
	evKeyShift    = 16
	evValShift    = 40
	evLenMask     = 0xffffff // 24 bits each for key and value byte lengths
	evHeaderWords = 2
)

// recWords returns the total words of the record whose header is at
// monotone offset pos.
func (l *EventLog) recWords(tx rhtm.Tx, pos uint64) uint64 {
	h := tx.Load(l.word(pos))
	kb := int(h >> evKeyShift & evLenMask)
	vb := int(h >> evValShift & evLenMask)
	return uint64(evHeaderWords + (kb+7)/8 + (vb+7)/8)
}

// Append logs one event under tx. A value is elided when it would occupy
// more than a quarter of the ring or when no watch streams the ring; a key
// that would occupy more than half is counted as dropped (the kv layer's
// watch hub reports the gap as an explicit loss).
func (l *EventLog) Append(tx rhtm.Tx, kind EvKind, key, value []byte, rev uint64) {
	kw := (len(key) + 7) / 8
	vw := (len(value) + 7) / 8
	elided := len(value) > 0 && (evHeaderWords+kw+vw > l.cap/4 || tx.Load(l.watched) == 0)
	if elided {
		value, vw = nil, 0
	}
	if evHeaderWords+kw > l.cap/2 {
		tx.Store(l.dropped, tx.Load(l.dropped)+1)
		return
	}
	rec := uint64(evHeaderWords + kw + vw)
	h := tx.Load(l.head)
	t0 := tx.Load(l.tail)
	t := t0
	for h+rec-t > uint64(l.cap) {
		t += l.recWords(tx, t)
	}
	if t != t0 {
		tx.Store(l.tail, t)
	}
	hdr := uint64(kind) | uint64(len(key))<<evKeyShift | uint64(len(value))<<evValShift
	if elided {
		hdr |= evElidedBit
	}
	tx.Store(l.word(h), hdr)
	tx.Store(l.word(h+1), rev)
	writeRingBytes(tx, l, h+evHeaderWords, key)
	writeRingBytes(tx, l, h+evHeaderWords+uint64(kw), value)
	tx.Store(l.head, h+rec)
}

// writeRingBytes packs b into ring words starting at monotone offset pos.
func writeRingBytes(tx rhtm.Tx, l *EventLog, pos uint64, b []byte) {
	for i := 0; i < len(b); i += 8 {
		var w uint64
		for j := 0; j < 8 && i+j < len(b); j++ {
			w |= uint64(b[i+j]) << (8 * uint(j))
		}
		tx.Store(l.word(pos+uint64(i/8)), w)
	}
}

// readRingBytes decodes n bytes from ring words starting at offset pos.
func readRingBytes(tx rhtm.Tx, l *EventLog, pos uint64, n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		w := tx.Load(l.word(pos + uint64(i/8)))
		for j := 0; j < 8 && i+j < n; j++ {
			b[i+j] = byte(w >> (8 * uint(j)))
		}
	}
	return b
}

// Read decodes up to maxEvents records starting at monotone word offset
// from, under tx. It returns the events, the offset to resume at, and the
// oldest retained offset: when oldest > from, the ring overwrote records
// the reader had not consumed (the caller reports the gap). All loads run
// under tx, so a concurrent append that would tear the read aborts it
// instead — a returned batch is a consistent snapshot of the ring.
func (l *EventLog) Read(tx rhtm.Tx, from uint64, maxEvents int) (events []Ev, next, oldest uint64) {
	return l.ReadRange(tx, from, 0, maxEvents)
}

// ReadRange is Read bounded above by the monotone offset to (0 = the
// current head). to must be a record boundary a previous Read returned —
// the hub's replay uses it to stop exactly at its live-stream splice point.
func (l *EventLog) ReadRange(tx rhtm.Tx, from, to uint64, maxEvents int) (events []Ev, next, oldest uint64) {
	h := tx.Load(l.head)
	if to > 0 && to < h {
		h = to
	}
	t := tx.Load(l.tail)
	oldest = t
	if from < t {
		from = t
	}
	for from < h && len(events) < maxEvents {
		hdr := tx.Load(l.word(from))
		kb := int(hdr >> evKeyShift & evLenMask)
		vb := int(hdr >> evValShift & evLenMask)
		ev := Ev{
			Kind:        EvKind(hdr & evKindMask),
			Rev:         tx.Load(l.word(from + 1)),
			Key:         readRingBytes(tx, l, from+evHeaderWords, kb),
			ValueElided: hdr&evElidedBit != 0,
		}
		if vb > 0 {
			ev.Value = readRingBytes(tx, l, from+evHeaderWords+uint64((kb+7)/8), vb)
		}
		events = append(events, ev)
		from += uint64(evHeaderWords + (kb+7)/8 + (vb+7)/8)
	}
	return events, from, oldest
}

// Head returns the monotone append offset under tx — the position a reader
// starts from to see only future events.
func (l *EventLog) Head(tx rhtm.Tx) uint64 { return tx.Load(l.head) }

// AddWatchers adds n (+1 or -1) to the ring's open-watch count under tx.
// Appends carry put values only while the count is above 0: a watcher
// raises it in the transaction that reads the Head it streams from, and
// lowers it when it stops streaming.
func (l *EventLog) AddWatchers(tx rhtm.Tx, n int) {
	tx.Store(l.watched, tx.Load(l.watched)+uint64(n))
}

// Rev returns the last assigned revision under tx.
func (l *EventLog) Rev(tx rhtm.Tx) uint64 { return tx.Load(l.seq) }

// Dropped returns how many events were skipped because their key exceeded
// the ring (diagnostics).
func (l *EventLog) Dropped(tx rhtm.Tx) uint64 { return tx.Load(l.dropped) }
