package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rhtm"
	"rhtm/containers"
	"rhtm/store"
	"rhtm/wal"
)

// smallConfig builds a test cluster: small Systems, RH1 by default.
func smallConfig(systems int) Config {
	return Config{
		Systems:    systems,
		DataWords:  1 << 15,
		ArenaWords: 1 << 13,
	}
}

// --- routing (satellite: property test) ---

// TestKeyHashGolden pins the routing hash to the published FNV-1a 64-bit
// test vectors: the assignment must be stable across runs, processes, and
// refactors — a silent hash change would re-route every key.
func TestKeyHashGolden(t *testing.T) {
	golden := map[string]uint64{
		"":       0xcbf29ce484222325,
		"a":      0xaf63dc4c8601ec8c,
		"foobar": 0x85944171f73967e8,
	}
	for k, want := range golden {
		if got := store.KeyHash([]byte(k)); got != want {
			t.Errorf("KeyHash(%q) = %#x, want %#x", k, got, want)
		}
	}
	// Router and store shard assignment agree with the raw hash.
	r := Router{systems: 7}
	sh := store.NewSharded(rhtm.MustNewSystem(rhtm.DefaultConfig(1<<16)), 7, store.Options{ArenaWords: 1 << 10})
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("user%08d", i))
		want := int(store.KeyHash(key) % 7)
		if got := r.SystemFor(key); got != want {
			t.Fatalf("Router.SystemFor(%s) = %d, want %d", key, got, want)
		}
		if got := sh.ShardIndex(key); got != want {
			t.Fatalf("Sharded.ShardIndex(%s) = %d, want %d", key, got, want)
		}
	}
}

// TestRoutingBalanced: over 10k random keys no System (or shard) may hold
// more than twice the mean — fnv1a must spread realistic key shapes.
func TestRoutingBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := make([][]byte, 10_000)
	for i := range keys {
		switch i % 3 {
		case 0:
			keys[i] = []byte(fmt.Sprintf("user%08d", rng.Intn(1_000_000)))
		case 1:
			keys[i] = []byte(fmt.Sprintf("order:%d:%d", rng.Intn(1000), rng.Intn(1000)))
		default:
			b := make([]byte, rng.Intn(20)+1)
			rng.Read(b)
			keys[i] = b
		}
	}
	for _, systems := range []int{2, 4, 8} {
		r := Router{systems: systems}
		counts := make([]int, systems)
		for _, k := range keys {
			counts[r.SystemFor(k)]++
		}
		mean := len(keys) / systems
		for id, c := range counts {
			if c > 2*mean {
				t.Errorf("systems=%d: System %d holds %d keys, > 2x mean %d", systems, id, c, mean)
			}
			if c == 0 {
				t.Errorf("systems=%d: System %d holds no keys", systems, id)
			}
		}
	}
}

// --- 2PC mechanics ---

// crossPair returns two keys the router places on different Systems.
func crossPair(t *testing.T, c *Cluster) ([]byte, []byte) {
	t.Helper()
	a := []byte("home-0")
	for i := 0; ; i++ {
		b := []byte(fmt.Sprintf("away-%d", i))
		if c.Router().SystemFor(b) != c.Router().SystemFor(a) {
			return a, b
		}
	}
}

// one runs op as a one-op batch.
func one(cl *Client, op BatchOp) (BatchResult, error) {
	res, err := cl.Batch([]BatchOp{op})
	if err != nil {
		return BatchResult{}, err
	}
	return res[0], nil
}

// engineCommits returns every System's engine commit count.
func engineCommits(c *Cluster) []uint64 {
	out := make([]uint64, c.NumSystems())
	for i := range out {
		out[i] = c.Node(i).Engine().Snapshot().Commits()
	}
	return out
}

// wantCommitDeltas checks how many engine transactions each System
// committed since before: want for the Systems in parts, 0 for the rest.
func wantCommitDeltas(t *testing.T, c *Cluster, before []uint64, want uint64, parts ...int) {
	t.Helper()
	for i, now := range engineCommits(c) {
		w := uint64(0)
		if slices.Contains(parts, i) {
			w = want
		}
		if got := now - before[i]; got != w {
			t.Errorf("System %d committed %d engine transactions, want %d", i, got, w)
		}
	}
}

func TestLocalOpsLogNoDecisions(t *testing.T) {
	c := MustNew(smallConfig(2))
	cl := c.NewClient()
	if _, err := one(cl, BatchOp{Kind: BatchPut, Key: []byte("k"), Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	r, err := one(cl, BatchOp{Kind: BatchGet, Key: []byte("k")})
	if err != nil || !r.Found || !bytes.Equal(r.Value, []byte("v")) {
		t.Fatalf("Get = %+v,%v", r, err)
	}
	if _, err := one(cl, BatchOp{Kind: BatchDelete, Key: []byte("k")}); err != nil {
		t.Fatal(err)
	}
	// Single-System multi-key transactions stay local too.
	err = cl.Txn(func(tx *Txn) error {
		tx.Put([]byte("x"), []byte("1"))
		v, _, err := tx.Get([]byte("x"))
		if err != nil {
			return err
		}
		tx.Put([]byte("x"), append(v, '2'))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.CrossTxns != 0 || st.LocalTxns == 0 {
		t.Fatalf("stats = cross %d local %d, want cross 0 local >0", st.CrossTxns, st.LocalTxns)
	}
}

func TestCrossSystemCommit(t *testing.T) {
	c := MustNew(smallConfig(4))
	keyA, keyB := crossPair(t, c)
	cl := c.NewClient()
	before := engineCommits(c)
	err := cl.Txn(func(tx *Txn) error {
		tx.Put(keyA, []byte("alpha"))
		tx.Put(keyB, []byte("beta"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Peek(keyA); !bytes.Equal(v, []byte("alpha")) {
		t.Fatalf("keyA = %q", v)
	}
	if v, _ := c.Peek(keyB); !bytes.Equal(v, []byte("beta")) {
		t.Fatalf("keyB = %q", v)
	}
	if got := c.Counters(); got.CrossTxns != 1 || got.CrossCommits != 1 || got.CrossAborts != 0 {
		t.Fatalf("counters = %+v, want one 2PC round, committed", got)
	}
	// Each participant pays one prepare and one finish; the others nothing.
	wantCommitDeltas(t, c, before, 2, c.Router().SystemFor(keyA), c.Router().SystemFor(keyB))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossReadValidation: a cross-System RMW whose read is invalidated
// between the body and commit must conflict, and the body run again must
// apply the fresh value.
func TestCrossReadValidation(t *testing.T) {
	c := MustNew(smallConfig(4))
	keyA, keyB := crossPair(t, c)
	if err := c.Load(keyA, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(keyB, []byte{1}); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient()
	other := c.NewClient()
	attempt := 0
	sum := func(tx *Txn) error {
		attempt++
		va, _, err := tx.Get(keyA)
		if err != nil {
			return err
		}
		if attempt == 1 {
			// Invalidate the read before commit: the first attempt must
			// conflict at prepare, not commit a stale sum.
			if _, err := one(other, BatchOp{Kind: BatchPut, Key: keyA, Value: []byte{10}}); err != nil {
				return err
			}
		}
		vb, _, err := tx.Get(keyB)
		if err != nil {
			return err
		}
		tx.Put(keyB, []byte{va[0] + vb[0]})
		return nil
	}
	if err := cl.Txn(sum); !errors.Is(err, ErrConflict) {
		t.Fatalf("first attempt err = %v, want ErrConflict despite the invalidated read", err)
	}
	if got := c.Stats().PrepareConflicts; got != 1 {
		t.Fatalf("PrepareConflicts = %d, want 1", got)
	}
	if err := cl.Txn(sum); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Peek(keyB); v[0] != 11 {
		t.Fatalf("keyB = %d, want 11 (10 from the interfering write + 1)", v[0])
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// crossWrite commits keyA→"a", keyB→"b" as one cross-System transaction,
// as a closure or as a batch.
type crossWrite func(cl *Client, keyA, keyB []byte) error

var crossEntryPoints = []struct {
	name  string
	write crossWrite
}{
	{"Txn", func(cl *Client, keyA, keyB []byte) error {
		return cl.Txn(func(tx *Txn) error {
			tx.Put(keyA, []byte("a"))
			tx.Put(keyB, []byte("b"))
			return nil
		})
	}},
	{"Batch", func(cl *Client, keyA, keyB []byte) error {
		_, err := cl.Batch([]BatchOp{
			{Kind: BatchPut, Key: keyA, Value: []byte("a")},
			{Kind: BatchPut, Key: keyB, Value: []byte("b")},
		})
		return err
	}},
}

// attachMemWAL binds c to fresh in-memory streams, returning the
// coordinator decision log's device.
func attachMemWAL(t *testing.T, c *Cluster) *wal.MemDevice {
	t.Helper()
	dev, _ := attachMemStorage(t, c).Device("coord")
	return dev.(*wal.MemDevice)
}

// attachMemStorage binds c to fresh in-memory streams — "coord" for the
// decision log, "sys-<i>" for System i's data — and returns their storage.
func attachMemStorage(t *testing.T, c *Cluster) *wal.MemStorage {
	t.Helper()
	stg := wal.NewMemStorage()
	open := func(name string, startRevs map[int]uint64) *wal.Writer {
		dev, err := stg.Device(name)
		if err != nil {
			t.Fatal(err)
		}
		return wal.NewWriter(dev, 1, startRevs, wal.Options{})
	}
	ws := &WALSet{Coord: open("coord", nil)}
	for i := 0; i < c.NumSystems(); i++ {
		st := c.Node(i).Store()
		rev := st.Events().Rev(containers.SetupTx(st.System()))
		ws.Data = append(ws.Data, open(fmt.Sprintf("sys-%d", i), map[int]uint64{0: rev + 1}))
	}
	c.AttachWAL(ws)
	return stg
}

// TestTwoPhaseRound drives the single 2PC round (Client.commitCross) from
// both of its callers — a buffered Txn and a Batch that spans Systems —
// over the ways a round can end: a refused prepare, the coordinator log
// fenced before the durable decision, the data streams fenced after it,
// and a clean commit. keyLo lives on the lower-numbered participant, so it
// has always prepared (its intent is installed) when the round is decided.
func TestTwoPhaseRound(t *testing.T) {
	type rig struct {
		c            *Cluster
		coord        *wal.MemDevice
		keyLo, keyHi []byte
	}
	parked := func(r *rig) (*Node, rhtm.Tx) {
		n := r.c.Node(r.c.Router().SystemFor(r.keyHi))
		return n, containers.SetupTx(n.System())
	}
	cases := []struct {
		name string
		wal  bool
		arm  func(t *testing.T, r *rig)
		// wantErr is matched with errors.Is (nil: the write must commit);
		// aborts and commits are the expected counter movements.
		wantErr         error
		aborts, commits uint64
		// decisions / marks: commit-decision groups and resolution marks
		// expected on the coordinator device (wal rows only).
		decisions, marks int
		after            func(t *testing.T, r *rig, write crossWrite, cl *Client)
	}{
		{
			// A foreign intent on the second participant refuses its prepare:
			// the one round aborts, the first participant's intent is
			// discharged, and nothing commits or is decided.
			name: "prepare conflict",
			arm: func(t *testing.T, r *rig) {
				n, tx := parked(r)
				if err := n.Store().PrepareIntent(tx, r.keyHi, 999, store.IntentPut, []byte("parked"), 0); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: ErrConflict, aborts: 1,
			after: func(t *testing.T, r *rig, write crossWrite, cl *Client) {
				if got := r.c.Stats().PrepareConflicts; got != 1 {
					t.Errorf("PrepareConflicts = %d, want 1: a round is one attempt", got)
				}
				if got := r.c.Counters().CrossCommits; got != 0 {
					t.Errorf("conflicted transaction committed: %d commit decisions", got)
				}
				// Releasing the parked intent lets the same write through.
				n, tx := parked(r)
				if err := n.Store().DiscardIntent(tx, r.keyHi, 999); err != nil {
					t.Fatal(err)
				}
				if err := write(cl, r.keyLo, r.keyHi); err != nil {
					t.Fatalf("after release: %v", err)
				}
				if v, _ := r.c.Peek(r.keyHi); !bytes.Equal(v, []byte("b")) {
					t.Errorf("keyHi = %q after release", v)
				}
			},
		},
		{
			// The durable commit point is refused: aborted by omission, and
			// in memory too — no decision frame, no intent left behind.
			name: "coordinator fenced before the decision", wal: true,
			arm:     func(t *testing.T, r *rig) { r.c.WAL().Coord.Fence() },
			wantErr: wal.ErrFenced, aborts: 1,
		},
		{
			// The decision is durable, so the transaction IS committed and
			// every intent is still discharged; but the applies never
			// reached the data streams, so the decision must stay unmarked
			// — in doubt — for the failover to resolve forward.
			name: "data writers fenced after the decision", wal: true,
			arm: func(t *testing.T, r *rig) {
				for _, w := range r.c.WAL().Data {
					w.Fence()
				}
			},
			commits: 1, decisions: 1, marks: 0,
		},
		{
			name: "clean commit", wal: true,
			arm:     func(t *testing.T, r *rig) {},
			commits: 1, decisions: 1, marks: 1,
		},
	}
	for _, tc := range cases {
		for _, entry := range crossEntryPoints {
			write := entry.write
			t.Run(tc.name+"/"+entry.name, func(t *testing.T) {
				r := &rig{c: MustNew(smallConfig(4))}
				r.keyLo, r.keyHi = crossPair(t, r.c)
				if r.c.Router().SystemFor(r.keyLo) > r.c.Router().SystemFor(r.keyHi) {
					r.keyLo, r.keyHi = r.keyHi, r.keyLo
				}
				if tc.wal {
					r.coord = attachMemWAL(t, r.c)
				}
				tc.arm(t, r)
				cl := r.c.NewClient()
				err := write(cl, r.keyLo, r.keyHi)
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				_, wrote := r.c.Peek(r.keyLo)
				if committed := tc.wantErr == nil; wrote != committed {
					t.Fatalf("keyLo written = %v, want %v", wrote, committed)
				}
				st := r.c.Stats()
				if st.CrossAborts != tc.aborts || st.CrossCommits != tc.commits {
					t.Errorf("aborts/commits = %d/%d, want %d/%d",
						st.CrossAborts, st.CrossCommits, tc.aborts, tc.commits)
				}
				if tc.after != nil {
					tc.after(t, r, write, cl)
				}
				for i := 0; i < r.c.NumSystems(); i++ {
					n := r.c.Node(i)
					if got := n.Store().PendingIntents(containers.SetupTx(n.System())); got != 0 {
						t.Errorf("System %d: %d pending intents left behind", i, got)
					}
				}
				if tc.wal {
					data, err := r.coord.Contents()
					if err != nil {
						t.Fatal(err)
					}
					sr := wal.Scan(data)
					if len(sr.Txns) != tc.decisions || len(sr.Marks) != tc.marks {
						t.Errorf("coordinator device holds %d decisions, %d marks; want %d, %d",
							len(sr.Txns), len(sr.Marks), tc.decisions, tc.marks)
					}
				}
				if err := r.c.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestIntentBlocksReaders: while an intent is pending, a single-key read of
// that key conflicts at once instead of returning a value that may be
// mid-replacement.
func TestIntentBlocksReaders(t *testing.T) {
	c := MustNew(smallConfig(2))
	if err := c.Load([]byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	n := c.Node(c.Router().SystemFor([]byte("k")))
	setup := containers.SetupTx(n.System())
	if err := n.Store().PrepareIntent(setup, []byte("k"), 7, store.IntentPut, []byte("new"), 0); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient()
	get := BatchOp{Kind: BatchGet, Key: []byte("k")}
	if _, err := one(cl, get); !errors.Is(err, ErrConflict) {
		t.Fatalf("Get under intent err = %v, want ErrConflict", err)
	}
	if got := c.Stats().IntentWaits; got != 1 {
		t.Fatalf("IntentWaits = %d, want 1: a Get is one attempt", got)
	}
	if _, err := n.Store().ApplyIntent(setup, []byte("k"), 7); err != nil {
		t.Fatal(err)
	}
	r, err := one(cl, get)
	if err != nil || !r.Found || !bytes.Equal(r.Value, []byte("new")) {
		t.Fatalf("Get after apply = %+v,%v", r, err)
	}
}

func TestTxnUserAbort(t *testing.T) {
	c := MustNew(smallConfig(4))
	keyA, keyB := crossPair(t, c)
	sentinel := errors.New("user abort")
	cl := c.NewClient()
	err := cl.Txn(func(tx *Txn) error {
		tx.Put(keyA, []byte("x"))
		tx.Put(keyB, []byte("y"))
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if _, ok := c.Peek(keyA); ok {
		t.Fatal("aborted body leaked a write")
	}
	if got := c.Counters().CrossTxns; got != 0 {
		t.Fatalf("aborted body reached the coordinator: %d 2PC rounds", got)
	}
}

// TestTxnReadYourWrites: buffered writes are visible to the body's reads.
func TestTxnReadYourWrites(t *testing.T) {
	c := MustNew(smallConfig(2))
	cl := c.NewClient()
	err := cl.Txn(func(tx *Txn) error {
		tx.Put([]byte("k"), []byte("one"))
		if v, ok, _ := tx.Get([]byte("k")); !ok || !bytes.Equal(v, []byte("one")) {
			return fmt.Errorf("read-your-write saw %q,%v", v, ok)
		}
		tx.Delete([]byte("k"))
		if _, ok, _ := tx.Get([]byte("k")); ok {
			return fmt.Errorf("read-your-delete still present")
		}
		tx.Put([]byte("k"), []byte("two"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Peek([]byte("k")); !bytes.Equal(v, []byte("two")) {
		t.Fatalf("final = %q, want two", v)
	}
}

// The cross-engine conformance battery (enginetest.RunDB) runs from the kv
// package's tests against both the cluster and the single-System store —
// importing enginetest here would cycle through kv.

// --- batched operations ---

// TestBatchLocalAndCross: a batch whose keys live on one System commits as
// one local transaction (no coordinator decision); a batch spanning Systems
// commits as one buffered transaction under one 2PC decision. Per-op
// results follow batch order either way.
func TestBatchLocalAndCross(t *testing.T) {
	c := MustNew(smallConfig(4))
	cl := c.NewClient()
	keyA, keyB := crossPair(t, c)

	// Local batch: both ops on keyA's System (same key twice).
	res, err := cl.Batch([]BatchOp{
		{Kind: BatchPut, Key: keyA, Value: []byte("one")},
		{Kind: BatchGet, Key: keyA},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[1].Found || !bytes.Equal(res[1].Value, []byte("one")) {
		t.Fatalf("local batch get-after-put = %+v", res[1])
	}
	if got := c.Counters(); got.CrossTxns != 0 || got.LocalTxns != 1 {
		t.Fatalf("single-System batch: counters %+v, want one local transaction and no 2PC round", got)
	}

	// Cross batch: keys on two Systems, gets observing in-batch puts,
	// deletes reporting prior presence.
	before := engineCommits(c)
	res, err = cl.Batch([]BatchOp{
		{Kind: BatchGet, Key: keyB},                         // absent
		{Kind: BatchPut, Key: keyB, Value: []byte("two")},   //
		{Kind: BatchGet, Key: keyB},                         // sees "two"
		{Kind: BatchDelete, Key: keyA},                      // present ("one")
		{Kind: BatchGet, Key: keyA},                         // absent now
		{Kind: BatchPut, Key: keyA, Value: []byte("three")}, //
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Found {
		t.Fatalf("cross batch op0 = %+v, want absent", res[0])
	}
	if !res[2].Found || !bytes.Equal(res[2].Value, []byte("two")) {
		t.Fatalf("cross batch get-after-put = %+v", res[2])
	}
	if !res[3].Found {
		t.Fatalf("cross batch delete = %+v, want Found", res[3])
	}
	if res[4].Found {
		t.Fatalf("cross batch get-after-delete = %+v", res[4])
	}
	if got := c.Counters(); got.CrossTxns != 1 || got.CrossCommits != 1 {
		t.Fatalf("cross batch: counters %+v, want one 2PC round, committed", got)
	}
	// Each participant pays one read-through (keyB's first Get, keyA's
	// Delete), one prepare and one finish; the others nothing.
	wantCommitDeltas(t, c, before, 3, c.Router().SystemFor(keyA), c.Router().SystemFor(keyB))
	if v, _ := c.Peek(keyA); !bytes.Equal(v, []byte("three")) {
		t.Fatalf("keyA = %q", v)
	}
	if v, _ := c.Peek(keyB); !bytes.Equal(v, []byte("two")) {
		t.Fatalf("keyB = %q", v)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// --- snapshot scans ---

// TestScanSnapshotOrderedAndBlocked: the snapshot scan merges Systems into
// one ascending key order, honors range bounds and limits, and refuses to
// read past a pending in-range intent (the range is undecided).
func TestScanSnapshotOrderedAndBlocked(t *testing.T) {
	c := MustNew(smallConfig(3))
	for i := 0; i < 40; i++ {
		if err := c.Load([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	cl := c.NewClient()
	entries, err := cl.ScanSnapshot([]byte("k10"), []byte("k20"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("range scan yielded %d entries, want 10", len(entries))
	}
	for i, e := range entries {
		want := fmt.Sprintf("k%02d", 10+i)
		if string(e.Key) != want {
			t.Fatalf("entry %d = %q, want %q", i, e.Key, want)
		}
	}
	limited, err := cl.ScanSnapshot(nil, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 7 || string(limited[0].Key) != "k00" {
		t.Fatalf("limited scan = %d entries starting %q", len(limited), limited[0].Key)
	}

	// Park an intent inside the range: the scan must conflict at once
	// instead of returning an undecided range.
	victim := []byte("k15")
	n := c.Node(c.Router().SystemFor(victim))
	setup := containers.SetupTx(n.System())
	if err := n.Store().PrepareIntent(setup, victim, 7, store.IntentPut, []byte("new"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ScanSnapshot([]byte("k10"), []byte("k20"), 0); !errors.Is(err, ErrConflict) {
		t.Fatalf("scan over pending intent err = %v, want ErrConflict", err)
	}
	if got := c.Stats().IntentWaits; got != 1 {
		t.Fatalf("IntentWaits = %d, want 1: a scan is one attempt", got)
	}
	// Out-of-range scans are unaffected.
	if _, err := cl.ScanSnapshot([]byte("k20"), []byte("k30"), 0); err != nil {
		t.Fatalf("out-of-range scan: %v", err)
	}
	if _, err := n.Store().ApplyIntent(setup, victim, 7); err != nil {
		t.Fatal(err)
	}
	after, err := cl.ScanSnapshot([]byte("k15"), []byte("k16"), 0)
	if err != nil || len(after) != 1 || !bytes.Equal(after[0].Value, []byte("new")) {
		t.Fatalf("scan after apply = %+v, %v", after, err)
	}
}

// TestTxnScanOverlay: an in-transaction scan observes the transaction's own
// buffered writes overlaid on the committed snapshot.
func TestTxnScanOverlay(t *testing.T) {
	c := MustNew(smallConfig(2))
	for _, k := range []string{"b", "d", "f"} {
		if err := c.Load([]byte(k), []byte("old-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	cl := c.NewClient()
	err := cl.Txn(func(tx *Txn) error {
		tx.Put([]byte("a"), []byte("new-a")) // insert before range start
		tx.Put([]byte("d"), []byte("new-d")) // overwrite
		tx.Delete([]byte("f"))               // remove
		entries, err := tx.Scan([]byte("a"), []byte("z"), 0)
		if err != nil {
			return err
		}
		var got []string
		for _, e := range entries {
			got = append(got, string(e.Key)+"="+string(e.Value))
		}
		want := "a=new-a b=old-b d=new-d"
		if joined := strings.Join(got, " "); joined != want {
			return fmt.Errorf("overlay scan = %q, want %q", joined, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedReadIntentsCluster: a pending *read* intent no longer blocks
// readers or snapshot scans — only writers — and read intents from
// different transactions coexist on one key (the intent-aware read-sharing
// follow-up from the ROADMAP).
func TestSharedReadIntentsCluster(t *testing.T) {
	c := MustNew(smallConfig(2))
	if err := c.Load([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	n := c.Node(c.Router().SystemFor([]byte("k")))
	setup := containers.SetupTx(n.System())
	// Two foreign transactions pin the key with shared read intents.
	if err := n.Store().PrepareIntent(setup, []byte("k"), 101, store.IntentRead, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().PrepareIntent(setup, []byte("k"), 102, store.IntentRead, nil, 0); err != nil {
		t.Fatalf("second reader refused to share: %v", err)
	}

	cl := c.NewClient()
	// Reads and snapshot scans pass straight through the pinned key.
	if r, err := one(cl, BatchOp{Kind: BatchGet, Key: []byte("k")}); err != nil || !r.Found || string(r.Value) != "v" {
		t.Fatalf("Get under read intents = %+v,%v", r, err)
	}
	if entries, err := cl.ScanSnapshot(nil, nil, 0); err != nil || len(entries) != 1 {
		t.Fatalf("ScanSnapshot under read intents = %v, %v", entries, err)
	}
	// Writers must wait for the pinned readers: the Put conflicts.
	put := BatchOp{Kind: BatchPut, Key: []byte("k"), Value: []byte("w")}
	if _, err := one(cl, put); !errors.Is(err, ErrConflict) {
		t.Fatalf("Put under read intents err = %v, want ErrConflict", err)
	}
	if got := c.Stats().IntentWaits; got != 1 {
		t.Fatalf("IntentWaits = %d, want 1: a Put is one attempt", got)
	}
	// Releasing both readers unblocks the writer.
	if _, err := n.Store().ApplyIntent(setup, []byte("k"), 101); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().DiscardIntent(setup, []byte("k"), 102); err != nil {
		t.Fatal(err)
	}
	if _, err := one(cl, put); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
