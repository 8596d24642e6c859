package wal

import (
	"errors"
	"sync"
)

// Tailer turns a live WAL device into a replication stream: a blocking
// reader that decodes whole units — transaction groups, checkpoints, marks,
// epoch frames — in log order, resumable from a byte-offset/LSN cursor.
// Because log order equals commit order (the writer's sequence gate), the
// unit stream *is* the primary's commit stream, and a replica that applies
// it is the primary at a revision watermark.
//
// The contract with the writer: appends are whole units (the writer encodes
// begin/ops/commit contiguously and hands the device a single buffer), so a
// tailer over a quiescent device never sees a partial unit, and a partial
// unit mid-traffic only means the bytes are still landing — the tailer
// waits. Units come from readUnit, the decoder recovery's Scan folds, so
// the tailer stops exactly where Scan ends the log: a corrupt frame, a
// malformed sequence or an LSN gap fails the tailer permanently with
// ErrBadStream, since the stream below a live writer is trustworthy and
// each is real damage.
//
// Next blocks until a unit is readable or the tailer is closed; Kick wakes
// blocked readers (the writer's SetOnAppend hook is the intended caller).
// Tailer methods never call into the writer, so the writer may kick while
// holding its own lock.
type Tailer struct {
	dev Device

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte // unconsumed device bytes starting at offset off; never rewritten
	off    int    // device offset of buf[0] — the consumed prefix
	next   uint64 // expected LSN of the next frame
	closed bool
	err    error // permanent decode failure
}

// ErrTailerClosed reports a Next call on a closed tailer.
var ErrTailerClosed = errors.New("wal: tailer closed")

// NewTailer builds a tailer over dev resuming at byte offset off, whose
// next frame must carry LSN nextLSN. A fresh replica starts at (0, 1); a
// resuming one passes the EndOff/EndLSN+1 cursor of the last unit it
// applied.
func NewTailer(dev Device, off int, nextLSN uint64) *Tailer {
	t := &Tailer{dev: dev, off: off, next: nextLSN}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Kick wakes blocked Next callers to re-check the device. The writer's
// SetOnAppend hook calls it after every append.
func (t *Tailer) Kick() {
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
}

// Close wakes and fails every blocked reader with ErrTailerClosed.
func (t *Tailer) Close() {
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// Next returns the next unit, blocking until one is fully readable. It
// fails with ErrTailerClosed after Close, and permanently with ErrBadStream
// on real stream damage.
func (t *Tailer) Next() (Unit, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		u, ok, err := t.tryLocked()
		if err != nil || ok {
			return u, err
		}
		t.cond.Wait()
	}
}

// tryLocked reads one unit from the buffer, or else from the bytes appended
// since the last read.
func (t *Tailer) tryLocked() (Unit, bool, error) {
	if t.err != nil {
		return Unit{}, false, t.err
	}
	if t.closed {
		return Unit{}, false, ErrTailerClosed
	}
	u, ok, err := t.decodeLocked()
	if err != nil || ok {
		return u, ok, err
	}
	if !t.refreshLocked() {
		return Unit{}, false, t.err
	}
	return t.decodeLocked()
}

// refreshLocked pulls newly appended device bytes into the buffer,
// reporting whether any arrived.
func (t *Tailer) refreshLocked() bool {
	cur := t.off + len(t.buf)
	if t.dev.Size() <= cur {
		return false
	}
	data, err := t.dev.ContentsFrom(cur)
	if err != nil {
		t.err = err
		t.cond.Broadcast()
		return false
	}
	if len(t.buf) == 0 {
		t.buf = data // ContentsFrom's slice is fresh: own it, no copy
	} else {
		t.buf = append(t.buf, data...)
	}
	return len(data) > 0
}

// decodeLocked reads one whole unit from the front of the buffer through
// readUnit, consuming it (and advancing the cursor) only when whole. ok is
// false while the buffer holds a prefix of a unit still being appended; any
// other readUnit error fails the tailer permanently.
func (t *Tailer) decodeLocked() (Unit, bool, error) {
	u, err := readUnit(t.buf, t.next)
	if errors.Is(err, ErrTorn) {
		return Unit{}, false, nil
	}
	if err != nil {
		t.err = err
		t.cond.Broadcast()
		return Unit{}, false, err
	}
	// Reslice, never shift: u aliases the bytes just consumed. An append in
	// refreshLocked writes only past the buffer's end, and a chunk is
	// dropped once it is drained and no unit holds it: an empty reslice
	// would still point into it.
	if t.buf = t.buf[u.EndOff:]; len(t.buf) == 0 {
		t.buf = nil
	}
	t.off += u.EndOff
	t.next = u.EndLSN + 1
	u.EndOff = t.off
	return u, true, nil
}
