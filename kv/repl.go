package kv

import (
	"errors"
	"fmt"

	"rhtm/wal"
)

// Follower reads and failover promotion for the kv layer. The repl package
// tails a primary DB's WAL streams (its Layout) into replica Systems via the
// replay entry points; this file is the kv-side surface that makes those
// replicas useful: provably-stale reads (FollowerReader) and the one
// Promote that turns a caught-up replica into the streams' next primary
// under a new fenced epoch.

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

// Promote attaches a writer set to a DB built without a log — the failover
// step that turns a caught-up replica into its streams' primary. devs are
// the devices of the DB's Layout, in order, already drained by the
// replica's pumps, so promotion is recovery without the replay: the same
// attachWAL opens them and builds the writers, resolving a cluster's
// in-doubt decisions forward. An epoch frame is the first of the new reign
// on every stream, the last stream's carrying the membership blob: durable
// evidence the old epoch's writers were fenced before any later frame.
//
// The caller must quiesce the DB first (no in-flight operations): promotion
// swaps the durability hook, marks the event-history floor, and seeds the
// sequence gates from the current clocks, none of which tolerates
// concurrent commits. The repl layer's Group.Promote provides that.
func (db *core[S]) Promote(devs []wal.Device, epoch uint64, membership []byte) error {
	if db.ws != nil {
		return fmt.Errorf("kv: promote: DB already owns a log")
	}
	if len(devs) != len(db.lay) {
		return fmt.Errorf("kv: promote: %d devices for a layout of %d streams", len(devs), len(db.lay))
	}
	return db.attachWAL(devs, epoch, membership)
}
