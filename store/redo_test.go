package store

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rhtm"
	"rhtm/containers"
	"rhtm/wal"
)

// redoStore is the log boundary Store and Sharded share.
type redoStore interface {
	Write(tx rhtm.Tx, op wal.Op) (wal.Op, error)
	Replay(tx rhtm.Tx, ops []wal.Op) (uint64, error)
	Snapshot(tx rhtm.Tx) []wal.Op
	EventLogs() []*EventLog
	PartitionOf(key []byte) int
	System() *rhtm.System
}

// TestRedoRoundTrip: the records Write returns, replayed into a fresh store
// of the same geometry, rebuild the source — every record with its value,
// revision, lease and partition, and every partition clock. Replaying them
// again changes nothing, and a Snapshot replayed into a third store rebuilds
// the same state.
func TestRedoRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func() redoStore
	}{
		{"Store", func() redoStore { return New(newSys(1<<16), Options{ArenaWords: 1 << 12}) }},
		{"Sharded4", func() redoStore { return NewSharded(newSys(1<<17), 4, Options{ArenaWords: 1 << 12}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.new()
			tx := containers.SetupTx(src.System())
			var recs []wal.Op
			write := func(op wal.Op) wal.Op {
				t.Helper()
				rec, err := src.Write(tx, op)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Rev != 0 {
					recs = append(recs, rec)
				}
				return rec
			}
			key := func(i int) []byte { return []byte(fmt.Sprintf("key-%02d", i)) }
			for i := 0; i < 16; i++ {
				write(wal.Op{Kind: wal.OpPut, Key: key(i), Value: []byte(fmt.Sprintf("v%d", i)), Lease: uint64(i % 3)})
			}
			for i := 0; i < 16; i += 3 {
				write(wal.Op{Kind: wal.OpPut, Key: key(i), Value: []byte(fmt.Sprintf("longer value %d", i))})
			}
			if rec := write(wal.Op{Kind: wal.OpDelete, Key: key(4)}); rec.Rev == 0 {
				t.Fatal("deleting a present key stamped no revision")
			}
			if rec := write(wal.Op{Kind: wal.OpDelete, Key: []byte("absent")}); rec.Rev != 0 {
				t.Fatalf("deleting an absent key stamped revision %d", rec.Rev)
			}
			// Each partition's last write is a put, so a snapshot (which
			// carries no deletes) also reaches every clock.
			for i := 0; i < 16; i += 2 {
				write(wal.Op{Kind: wal.OpPut, Key: key(i), Value: []byte("last"), Lease: 7})
			}
			for i, l := range src.EventLogs() {
				if l.Rev(tx) == 0 {
					t.Fatalf("partition %d took no write", i)
				}
			}

			type state struct {
				snap   []wal.Op
				clocks []uint64
			}
			stateOf := func(st redoStore) state {
				tx := containers.SetupTx(st.System())
				var s state
				s.snap = st.Snapshot(tx)
				for _, l := range st.EventLogs() {
					s.clocks = append(s.clocks, l.Rev(tx))
				}
				return s
			}
			replayInto := func(st redoStore, ops []wal.Op) {
				t.Helper()
				maxRev, err := st.Replay(containers.SetupTx(st.System()), ops)
				if err != nil {
					t.Fatal(err)
				}
				var want uint64
				for _, op := range ops {
					want = max(want, op.Rev)
				}
				if maxRev != want {
					t.Fatalf("Replay returned max revision %d, want %d", maxRev, want)
				}
			}
			want := stateOf(src)
			for _, op := range slices.Concat(recs, want.snap) {
				if op.Part != src.PartitionOf(op.Key) {
					t.Fatalf("record %q names partition %d, its key routes to %d", op.Key, op.Part, src.PartitionOf(op.Key))
				}
			}

			dst := tc.new()
			replayInto(dst, recs)
			if got := stateOf(dst); !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed records:\n got %v\nwant %v", got, want)
			}
			dtx := containers.SetupTx(dst.System())
			heads := func() (out []uint64) {
				for _, l := range dst.EventLogs() {
					out = append(out, l.Rev(dtx), l.Head(dtx))
				}
				return append(out, uint64(len(dst.Snapshot(dtx))))
			}
			before := heads()
			replayInto(dst, recs)
			if after := heads(); !reflect.DeepEqual(after, before) {
				t.Fatalf("a second replay moved clocks, heads or count: %v, was %v", after, before)
			}
			if got := stateOf(dst); !reflect.DeepEqual(got, want) {
				t.Fatalf("after a second replay:\n got %v\nwant %v", got, want)
			}

			third := tc.new()
			replayInto(third, want.snap)
			if got := stateOf(third); !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed snapshot:\n got %v\nwant %v", got, want)
			}
		})
	}
}
