package kv

import (
	"errors"
	"fmt"

	"rhtm/wal"
)

// Follower reads and failover promotion for the kv layer. The repl package
// tails a primary DB's WAL stream(s) into replica Systems via the replay
// entry points; this file is the kv-side surface that makes those replicas
// useful: provably-stale reads (FollowerReader), the writer accessor the
// tailer hooks, and the Promote constructors that turn a caught-up replica
// into the stream's next primary under a new fenced epoch.

// ErrTooStale reports a ReadAt whose revision floor is above the replica's
// applied watermark: the follower cannot yet prove it has the caller's
// required prefix. Retry against the primary, or wait for the watermark.
var ErrTooStale = errors.New("kv: follower watermark below requested revision floor")

// ErrFenced reports a write on a DB whose WAL writer was fenced by a
// promotion — the deposed primary's commits, rejected before any frame
// reaches the device. Alias of the wal package's sentinel.
var ErrFenced = wal.ErrFenced

// FollowerReader is the follower-read surface. DB embeds it, so every DB
// carries it; a replica (repl.Follower) serves it before promotion.
//
// The staleness contract: the returned watermark is the owning partition's
// revision clock observed no earlier than the read itself, so rev <=
// watermark always — a follower read can never observe a revision above the
// watermark it advertises. Against the primary the watermark is simply the
// current clock; against a replica it is how far the apply pump has
// provably caught up, making staleness measurable with a primary GetRev.
type FollowerReader interface {
	// ReadAt reads key, returning its value, the revision it was written
	// at, and the watermark the read is provably current to. An absent key
	// returns ErrNotFound with the watermark still valid. It fails with
	// ErrTooStale when the watermark has not reached floor, so a caller
	// holding a primary revision (from GetRev) can demand read-your-writes;
	// floor 0 reads at whatever the watermark is.
	ReadAt(key []byte, floor Revision) (value []byte, rev, watermark Revision, err error)
}

// WAL returns the DB's group-commit writer, nil when the DB was constructed
// without a log — the replication layer's hook for append wakeups
// (Writer.SetOnAppend) and epoch fencing (Writer.Fence).
func (db *Local) WAL() *wal.Writer {
	if db.wal == nil {
		return nil
	}
	return db.wal.w
}

// WALDataName names System i's stream inside a wal.Storage — exported so
// the replication layer opens the same devices OpenCluster does.
func WALDataName(i int) string { return walDataName(i) }

// WALCoordName names the coordinator decision log inside a wal.Storage.
const WALCoordName = walCoordName

// ReadAt implements FollowerReader. One attempt reads the key and its
// partition's revision clock together — one engine transaction on Local,
// one on the owning System of a cluster (cluster.Client.ReadClock, run
// again while a pending write intent holds the key) — so the pair is a
// consistent snapshot: the clock *is* the watermark, and rev <= watermark
// holds by construction on any engine.
func (db *core[S]) ReadAt(key []byte, floor Revision) ([]byte, Revision, Revision, error) {
	if reservedKey(key) {
		return nil, 0, 0, ErrReservedKey
	}
	s := db.claim(nil)
	defer db.release(s)
	o := s.op()
	o.kind, o.key = opReadAt, key
	if _, err := db.run(s, nil); err != nil {
		return nil, 0, 0, err
	}
	return atFloor(o.val, o.rev, o.wm, o.found, floor)
}

// atFloor answers a follower read from one snapshot of a key and its
// watermark: ErrTooStale when the watermark is below floor, ErrNotFound
// (watermark still valid) for an absent key.
func atFloor(val []byte, rev, wm Revision, found bool, floor Revision) ([]byte, Revision, Revision, error) {
	if wm < floor {
		return nil, 0, wm, fmt.Errorf("kv: watermark %d below floor %d: %w", wm, floor, ErrTooStale)
	}
	if !found {
		return nil, 0, wm, ErrNotFound
	}
	return val, rev, wm, nil
}

// --- promotion ---

// Promote attaches a WAL writer to a DB built without one — the failover
// step that turns a caught-up replica into the stream's primary. dev is the
// stream's device, already drained: the replica's pumps applied every unit
// on it, so promotion is recovery without the replay — the device is opened
// (and a torn tail truncated) with the scan OpenLocal runs, and the writer
// attaches through the same setup. The first frame of the new reign is a
// synced epoch record carrying the membership blob: durable evidence the
// old epoch's writer was fenced before any later frame.
//
// The caller must quiesce the DB first (no in-flight operations): promotion
// swaps the durability hook, marks the event-history floor, and seeds the
// sequence gate from the current clocks, none of which tolerates concurrent
// commits. The repl layer's Group.Promote provides that quiescence.
func (db *Local) Promote(dev wal.Device, epoch uint64, membership []byte) error {
	if db.wal != nil {
		return fmt.Errorf("kv: promote: DB already owns a log")
	}
	sr, err := wal.OpenDevice(dev)
	if err != nil {
		return err
	}
	return db.attachWAL(dev, sr.NextLSN).AppendEpoch(epoch, membership)
}

// Promote is Local.Promote for a cluster: devs are the Systems' drained
// streams in order, then the coordinator decision log. In-doubt
// cross-System decisions are resolved forward exactly as OpenCluster
// resolves them after a crash, read off the same scans. Epoch frames are
// the first of the new reign on every stream (the coordinator's carries
// the membership blob).
func (db *ClusterDB) Promote(devs []wal.Device, epoch uint64, membership []byte) error {
	if db.c.WAL() != nil {
		return fmt.Errorf("kv: promote: cluster already owns a log")
	}
	if len(devs) != db.c.NumSystems()+1 {
		return fmt.Errorf("kv: promote: %d devices for %d systems and the coordinator",
			len(devs), db.c.NumSystems())
	}
	srs, err := openDevices(devs)
	if err != nil {
		return err
	}
	return db.attachWAL(devs, srs, epoch, membership)
}
