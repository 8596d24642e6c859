// Package wal is the durability layer of the repository: a simulated
// durable device, a checksummed redo-record codec, a group-commit writer,
// and a recovery scanner. The kv layer hooks it in at the commit boundary
// of store/ — the only layer that knows a transaction committed — so the
// log order of any two records for one store partition equals their commit
// order (the WAL rides the same per-store revision word that already orders
// the EventLog), extending the paper's substitution argument to durability:
// hardware and software commit paths produce byte-identical logs.
//
// The moving parts:
//
//   - Device (MemDevice, FileDevice): an append-only byte device with an
//     explicit Sync barrier. MemStorage adds crash injection: every
//     appended byte carries a global sequence stamp, and CrashImage(cut)
//     yields the storage a crash at that instant would leave behind —
//     including a torn tail truncated mid-record.
//   - Record / Encode / Decode (record.go): begin/op/commit/checkpoint
//     frames with per-record CRC32 checksums and monotone LSNs.
//   - Unit / appendUnit / readUnit (unit.go): the one codec of the frame
//     sequence — a transaction group, checkpoint, mark or epoch frame with
//     consecutive LSNs. Everything below writes or reads the log through it.
//   - Writer (writer.go): group commit. Committers publish whole
//     transactions; whoever reaches the device first flushes every
//     sequenced transaction and a single Sync covers the batch, amortizing
//     the sync cost exactly as kv.Batch amortizes 2PC.
//   - Scan (scan.go): the recovery parse, a fold of readUnit — committed
//     transaction groups after the last complete checkpoint, ending at the
//     first unit readUnit rejects (torn, corrupt, out of sequence or off
//     the LSN sequence).
//   - Tailer (tail.go): the replication stream, readUnit over a live
//     device — it stops exactly where Scan would.
package wal

import (
	"fmt"
	"os"
	"sync"
)

// Device is an append-only durable byte device. Append buffers bytes at the
// end; Sync is the durability barrier: bytes appended before a returned
// Sync survive any later crash, bytes after it may be lost or torn at any
// byte boundary. Contents reads everything appended so far (recovery),
// ContentsFrom the bytes at or after an offset (a Tailer's incremental
// read), each into a fresh slice the caller owns — decoded records alias
// it; Truncate discards a torn tail before new appends continue.
//
// Append, Truncate and Contents are serialized by the caller (the Writer
// holds its lock); Sync may run concurrently with Append — that overlap is
// group commit, so implementations must tolerate it. A Sync only promises
// durability for bytes appended before it was called.
type Device interface {
	Append(p []byte) error
	Sync() error
	Contents() ([]byte, error)
	ContentsFrom(off int) ([]byte, error)
	Truncate(n int) error
	Size() int
}

// Storage names a set of devices — one WAL stream per cluster System plus
// the coordinator decision log, or the single stream of a local DB.
type Storage interface {
	// Device opens (creating if absent) the named device. Reopening a name
	// returns the same content a crashed process would find.
	Device(name string) (Device, error)
}

// --- in-memory device with crash injection ---

// MemStorage is an in-memory Storage whose appends carry global sequence
// stamps, so a crash point cuts consistently across all devices: a byte
// survives the crash iff it was appended before the cut. Syncs do not move
// bytes — they only mark how far the *writer* may assume durability — so a
// CrashImage taken below a synced watermark models media loss, and one at
// Appended() models a clean stop.
type MemStorage struct {
	mu   sync.Mutex
	seq  uint64
	devs map[string]*MemDevice
}

// NewMemStorage builds an empty in-memory storage.
func NewMemStorage() *MemStorage {
	return &MemStorage{devs: map[string]*MemDevice{}}
}

// Device implements Storage.
func (s *MemStorage) Device(name string) (Device, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devs[name]
	if !ok {
		d = &MemDevice{stg: s}
		s.devs[name] = d
	}
	return d, nil
}

// Appended returns the global append sequence: total bytes ever appended
// across every device. It is the coordinate space of CrashImage cuts.
func (s *MemStorage) Appended() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// CrashImage clones the storage as a crash at global sequence cut would
// leave it: each device keeps exactly the bytes appended before cut. A cut
// mid-append yields a torn tail — the recovery scanner's checksum is what
// detects it.
func (s *MemStorage) CrashImage(cut uint64) *MemStorage {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := NewMemStorage()
	for name, d := range s.devs {
		nd := &MemDevice{stg: img}
		d.mu.Lock()
		for _, seg := range d.segs {
			keep := len(seg.buf)
			if seg.seq >= cut {
				keep = 0
			} else if seg.seq+uint64(len(seg.buf)) > cut {
				keep = int(cut - seg.seq)
			}
			if keep > 0 {
				nd.segs = append(nd.segs, memSeg{seq: seg.seq, buf: append([]byte(nil), seg.buf[:keep]...)})
				nd.size += keep
			}
			if keep < len(seg.buf) {
				break
			}
		}
		d.mu.Unlock()
		nd.synced = nd.size
		img.devs[name] = nd
	}
	img.seq = s.seq
	return img
}

// memSeg is one append's bytes with its global sequence stamp.
type memSeg struct {
	seq uint64
	buf []byte
}

// MemDevice is one in-memory device. The zero value is usable standalone
// (no storage, no crash injection) — benchmarks and writer tests use it
// directly.
type MemDevice struct {
	mu     sync.Mutex // guards size/segs/synced against the concurrent Sync
	stg    *MemStorage
	segs   []memSeg
	size   int
	synced int

	// SyncDelay, when non-nil, is called by every Sync to stand for the
	// cost of a durable barrier — what gives group commit something to
	// amortize in benchmarks. Sync calls it between its two lock sections,
	// after reading the size the barrier covers and before marking it
	// synced, so appends proceed while it runs.
	SyncDelay SyncDelayFunc
}

// SyncDelayFunc simulates the cost of one durable barrier.
type SyncDelayFunc func()

// Append implements Device.
func (d *MemDevice) Append(p []byte) error {
	var seq uint64
	if d.stg != nil {
		d.stg.mu.Lock()
		seq = d.stg.seq
		d.stg.seq += uint64(len(p))
		d.stg.mu.Unlock()
	}
	d.mu.Lock()
	d.segs = append(d.segs, memSeg{seq: seq, buf: append([]byte(nil), p...)})
	d.size += len(p)
	d.mu.Unlock()
	return nil
}

// Sync implements Device. The simulated barrier cost runs outside the
// device lock, so appends proceed underneath it — the overlap the Writer's
// group commit amortizes.
func (d *MemDevice) Sync() error {
	d.mu.Lock()
	target := d.size
	d.mu.Unlock()
	if d.SyncDelay != nil {
		d.SyncDelay()
	}
	d.mu.Lock()
	if target > d.synced {
		d.synced = target
	}
	d.mu.Unlock()
	return nil
}

// Contents implements Device.
func (d *MemDevice) Contents() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, 0, d.size)
	for _, seg := range d.segs {
		out = append(out, seg.buf...)
	}
	return out, nil
}

// Truncate implements Device.
func (d *MemDevice) Truncate(n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n > d.size {
		return fmt.Errorf("wal: truncate %d outside device of %d bytes", n, d.size)
	}
	keep := n
	var segs []memSeg
	for _, seg := range d.segs {
		if keep <= 0 {
			break
		}
		if len(seg.buf) <= keep {
			segs = append(segs, seg)
			keep -= len(seg.buf)
			continue
		}
		segs = append(segs, memSeg{seq: seg.seq, buf: seg.buf[:keep]})
		keep = 0
	}
	d.segs = segs
	d.size = n
	if d.synced > n {
		d.synced = n
	}
	return nil
}

// Size implements Device.
func (d *MemDevice) Size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

// ContentsFrom implements Device: a tailer's wakeup reads only the new
// bytes, not the whole device again. It finds off by
// walking back from the end, so a read costs the segments it returns and
// nothing for the log before them: a tailer that keeps up pays for the new
// frames only, however long the log has grown, and the device lock — which
// the commit path's Append and Sync also take — is held that long.
func (d *MemDevice) ContentsFrom(off int) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 || off > d.size {
		return nil, fmt.Errorf("wal: read at %d outside device of %d bytes", off, d.size)
	}
	out := make([]byte, 0, d.size-off)
	first, before := len(d.segs), d.size // segs[first:] start at offset before
	for before > off {
		first--
		before -= len(d.segs[first].buf)
	}
	skip := off - before
	for _, seg := range d.segs[first:] {
		out = append(out, seg.buf[skip:]...)
		skip = 0
	}
	return out, nil
}

// --- file-backed device ---

// FileStorage is a Storage over a host directory: one file per device
// name. It is the real-persistence path of examples/durability; the test
// batteries use MemStorage for injectable crashes.
type FileStorage struct {
	dir string
}

// NewFileStorage builds a Storage rooted at dir, creating it if needed.
func NewFileStorage(dir string) (*FileStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: storage dir: %w", err)
	}
	return &FileStorage{dir: dir}, nil
}

// Device implements Storage.
func (s *FileStorage) Device(name string) (Device, error) {
	f, err := os.OpenFile(s.dir+"/"+name+".wal", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open device: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileDevice{f: f, size: int(st.Size())}, nil
}

// FileDevice is an os.File-backed Device: Append writes at the end, Sync is
// fsync, Contents reads the file back for recovery.
type FileDevice struct {
	f    *os.File
	size int
}

// Append implements Device.
func (d *FileDevice) Append(p []byte) error {
	n, err := d.f.WriteAt(p, int64(d.size))
	d.size += n
	return err
}

// Sync implements Device.
func (d *FileDevice) Sync() error { return d.f.Sync() }

// Contents implements Device.
func (d *FileDevice) Contents() ([]byte, error) {
	out := make([]byte, d.size)
	if _, err := d.f.ReadAt(out, 0); err != nil && d.size > 0 {
		return nil, err
	}
	return out, nil
}

// ContentsFrom implements Device.
func (d *FileDevice) ContentsFrom(off int) ([]byte, error) {
	if off < 0 || off > d.size {
		return nil, fmt.Errorf("wal: read at %d outside device of %d bytes", off, d.size)
	}
	out := make([]byte, d.size-off)
	if _, err := d.f.ReadAt(out, int64(off)); err != nil && len(out) > 0 {
		return nil, err
	}
	return out, nil
}

// Truncate implements Device.
func (d *FileDevice) Truncate(n int) error {
	if err := d.f.Truncate(int64(n)); err != nil {
		return err
	}
	d.size = n
	return nil
}

// Size implements Device.
func (d *FileDevice) Size() int { return d.size }

// Close releases the underlying file.
func (d *FileDevice) Close() error { return d.f.Close() }
