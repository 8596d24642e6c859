package store

import (
	"bytes"
	"fmt"
	"testing"

	"rhtm"
	"rhtm/containers"
	"rhtm/wal"
)

func userKey(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }

// TestIntentsConflictOnlyOnOwnKeys counts how often a reader's body runs when
// a two-phase commit on another key commits under it. The reader looks its
// key up and checks it for an intent, as every accessor in cluster/ does, and
// parks; a second thread prepares and discards a put intent on key b, two
// committed transactions; the reader resumes. Its read set holds the bucket
// root of its own key and nothing else of the intent index, so it re-executes
// only when b hashes to the same bucket (then three times under RH1 Mixed
// with the GV6 clock: the hardware attempt is doomed by the root's write, and
// the first software attempt meets a stripe version ahead of its snapshot).
// With one intent tree per store (the layout before buckets) every b cost
// those re-executions.
func TestIntentsConflictOnlyOnOwnKeys(t *testing.T) {
	a := userKey(1)
	probe := New(newSys(1<<16), Options{ArenaWords: 1 << 12})
	var other, colliding []byte
	for i := 2; other == nil || colliding == nil; i++ {
		switch k := userKey(i); {
		case probe.intentsOf(k) != probe.intentsOf(a):
			if other == nil {
				other = k
			}
		case colliding == nil:
			colliding = k
		}
	}
	for _, c := range []struct {
		name   string
		b      []byte
		reruns bool
	}{{"another bucket", other, false}, {"the same bucket", colliding, true}} {
		s := newSys(1 << 16)
		st := New(s, Options{ArenaWords: 1 << 12})
		// 64-byte values: every block is whole lines, so the intent's fresh
		// blocks share no line with the record the reader loads.
		value := bytes.Repeat([]byte("v"), 64)
		if err := st.Put(containers.SetupTx(s), a, value); err != nil {
			t.Fatal(err)
		}
		eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())
		reader, committer := eng.NewThread(), eng.NewThread()
		parked, resume, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		runs := 0
		go func() {
			done <- reader.Atomic(func(tx rhtm.Tx) error {
				runs++
				if _, ok := st.Get(tx, a); !ok {
					return fmt.Errorf("%s missing", a)
				}
				st.WriteIntentOn(tx, a)
				if runs == 1 {
					close(parked)
					<-resume
				}
				return nil
			})
		}()
		<-parked
		if err := committer.Atomic(func(tx rhtm.Tx) error {
			return st.PrepareIntent(tx, c.b, 7, IntentPut, value, 0)
		}); err != nil {
			t.Fatal(err)
		}
		if err := committer.Atomic(func(tx rhtm.Tx) error { return st.DiscardIntent(tx, c.b, 7) }); err != nil {
			t.Fatal(err)
		}
		close(resume)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if (runs > 1) != c.reruns {
			t.Errorf("2PC on %s in %s as %s: the reader's body ran %d times, re-execution wanted: %v",
				c.b, c.name, a, runs, c.reruns)
		}
	}
}

// TestHotWordsOwnLines holds every independently written singleton of a
// store to a cache line of its own, within a shard and across shards: a
// transaction that loads one must not abort because a neighbour was written.
// The index and intent-bucket roots are containers.OrderedTree root cells,
// which own their lines by construction (containers
// TestOrderedTreeRootOwnsLine).
func TestHotWordsOwnLines(t *testing.T) {
	s := newSys(1 << 16)
	sh := NewSharded(s, 2, Options{ArenaWords: 1 << 12})
	owner := map[uint64]string{}
	own := func(name string, a rhtm.Addr) {
		line := s.Internal().Mem.LineOf(a)
		if prev, taken := owner[line]; taken {
			t.Errorf("%s (word %d) shares line %d with %s", name, a, line, prev)
		}
		owner[line] = name
	}
	for i, st := range sh.shards {
		own(fmt.Sprintf("shard %d count", i), st.count)
		own(fmt.Sprintf("shard %d arena.bump", i), st.arena.bump)
		own(fmt.Sprintf("shard %d log clock", i), st.log.seq)
		// Every append reads the watch count: it rides on the clock line
		// the append already writes, so it adds no line to a footprint.
		if mem := s.Internal().Mem; mem.LineOf(st.log.watched) != mem.LineOf(st.log.seq) {
			t.Errorf("shard %d: the log's watch count is off its clock line", i)
		}
	}
}

// TestHasWriteIntentInRangeSeesEveryBucket: a range is spread over every
// bucket, so the range check must visit them all — a write intent in any one
// is found, and shared read intents stay invisible in all of them.
func TestHasWriteIntentInRangeSeesEveryBucket(t *testing.T) {
	s := newSys(1 << 17)
	st := New(s, Options{ArenaWords: 1 << 15})
	tx := containers.SetupTx(s)
	// One key per bucket, and one more everywhere to hold a read intent.
	inBucket := map[*containers.OrderedTree][]byte{}
	for i := 0; len(inBucket) < intentBuckets; i++ {
		k := userKey(i)
		if b := st.intentsOf(k); inBucket[b] == nil {
			inBucket[b] = k
		}
		if err := st.PrepareIntent(tx, append(k, 'r'), 1, IntentRead, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st.HasWriteIntentInRange(tx, nil, nil) {
		t.Fatal("shared read intents are visible to the range check")
	}
	for _, k := range inBucket {
		if err := st.PrepareIntent(tx, k, 2, IntentDelete, nil, 0); err != nil {
			t.Fatal(err)
		}
		next := append(bytes.Clone(k), 0)
		if !st.HasWriteIntentInRange(tx, nil, nil) || !st.HasWriteIntentInRange(tx, k, next) {
			t.Errorf("write intent on %s not found by the range check", k)
		}
		if st.HasWriteIntentInRange(tx, next, append(bytes.Clone(k), 'q')) {
			t.Errorf("range after %s reports its write intent", k)
		}
		if err := st.DiscardIntent(tx, k, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.PendingIntents(tx); got < intentBuckets {
		t.Fatalf("PendingIntents = %d, want the read intents of at least %d keys", got, intentBuckets)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayPutIdempotent: Replay carries the re-delivery guard itself. A
// logged write at or below the record's revision changes nothing — value,
// revision, lease, entry count, revision clock, event log — and a later one
// applies.
func TestReplayPutIdempotent(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 12})
	tx := containers.SetupTx(s)
	key := []byte("k")
	replay := func(op wal.Op) {
		t.Helper()
		op.Key = key
		if _, err := st.Replay(tx, []wal.Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	// removed reports whether replaying a delete at rev removed the key.
	removed := func(rev uint64) bool {
		t.Helper()
		had := has(st, tx, key)
		replay(wal.Op{Kind: wal.OpDelete, Rev: rev})
		return had && !has(st, tx, key)
	}
	replay(wal.Op{Kind: wal.OpPut, Value: []byte("at-5"), Rev: 5, Lease: 9})
	state := func() string {
		v, rev, lease, ok := st.Read(tx, key)
		return fmt.Sprintf("%q rev %d lease %d present %v, %d keys, clock %d, log head %d",
			v, rev, lease, ok, st.Len(tx), st.log.Rev(tx), st.log.Head(tx))
	}
	was := state()
	for _, rev := range []uint64{4, 5} {
		replay(wal.Op{Kind: wal.OpPut, Value: []byte("stale"), Rev: rev, Lease: 1})
		if removed(rev) {
			t.Errorf("a replayed delete at revision %d removed the record at 5", rev)
		}
		if got := state(); got != was {
			t.Errorf("replay at revision %d over a record at 5 left %s, was %s", rev, got, was)
		}
	}
	// Two puts logged, three words each: header, revision and the key word
	// (no watch is open, so the values are elided).
	replay(wal.Op{Kind: wal.OpPut, Value: []byte("at-6"), Rev: 6})
	if got, want := state(), `"at-6" rev 6 lease 0 present true, 1 keys, clock 6, log head 6`; got != want {
		t.Errorf("a replayed put at revision 6 left %s, want %s", got, want)
	}
	if !removed(7) {
		t.Error("a replayed delete at revision 7 left the record at 6")
	}
	// An absent key has no revision to compare: the removal still consumes
	// its revision on the clock.
	if removed(9) || st.log.Rev(tx) != 9 || st.Len(tx) != 0 {
		t.Errorf("after a replayed delete of the absent key at 9: %s", state())
	}
}
