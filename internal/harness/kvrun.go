package harness

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"rhtm/kv"
)

// The unified KV runner: every mix of the mix table (mixes.go) is generated
// once, against the kv.DB interface, and executed by RunKV on any backend —
// a single-System engine over a sharded store, the share-nothing
// multi-System cluster, or either of them behind the network front end.
// This file holds the runner and the raw-record mixes; the backend lives
// in backend.go, the coordination mixes in coord.go, the table mixes in
// tablerun.go.

// bankInitial is the starting balance of every bank account.
const bankInitial = 1000

// kvRun is what one RunKV invocation hands its mix state.
type kvRun struct {
	spec KVSpec
	mix  *mixDesc
	be   *backend
	db   kv.DB
	zipf *zipfian // skewed record ranks; nil under DistUniform
}

// kvWorker is one worker thread's scratch, handed to the mix's step.
type kvWorker struct {
	rng     *rand.Rand
	buf     []byte  // value scratch, spec.ValueBytes long
	pending []kv.Op // batched mixes: ops awaiting the next Batch flush
	fi      int     // follower reads: round-robin cursor
}

// draw picks an index in [0, n) per the spec's distribution: uniform, or
// scrambled zipfian (as YCSB's ScrambledZipfianGenerator — the skew applies
// to hashed ranks so the hot keys spread over the key space, and therefore
// over shards and Systems).
func (r *kvRun) draw(w *kvWorker, n int) int {
	if r.zipf != nil {
		return int(scramble(uint64(r.zipf.next(w.rng))) % uint64(n))
	}
	return w.rng.Intn(n)
}

// record draws one loaded record's index.
func (r *kvRun) record(w *kvWorker) int { return r.draw(w, r.spec.Records) }

// multiSystem reports whether keys can land on different Systems.
func (r *kvRun) multiSystem() bool {
	return r.be.served.Domains() > 1
}

// load populates the spec's records through the setup path.
func (r *kvRun) load(fill func(val []byte)) error {
	val := make([]byte, r.spec.ValueBytes)
	for i := 0; i < r.spec.Records; i++ {
		fill(val)
		if err := r.be.load(ycsbKey(i), val); err != nil {
			return fmt.Errorf("KV load: %w", err)
		}
	}
	return nil
}

// loadRandom populates random payloads, reproducible from loaderSeed.
func (r *kvRun) loadRandom() error {
	rng := rand.New(rand.NewSource(loaderSeed))
	return r.load(func(val []byte) { rng.Read(val) })
}

// catchUp lets the replicas absorb the populate phase before measuring: the
// run quantifies steady-state read offload, not cold catch-up (misses
// during the run still fall back to the primary, counted).
func (r *kvRun) catchUp() error {
	for _, f := range r.be.followers {
		if err := f.WaitIdle(); err != nil {
			return fmt.Errorf("replica catch-up: %w", err)
		}
	}
	return nil
}

// RunKV executes one measurement of spec on the named engine: build the
// backend, let the spec's mix populate it, and drive cfg.Threads workers
// against the kv.DB. Every run ends with the mix's invariant audit and the
// backend's structural validation.
func RunKV(spec KVSpec, engineName string, cfg RunConfig) (Result, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	m, _ := lookupMix(spec.Mix) // validate vouched for it

	be, err := openBackend(m.sizing(spec, cfg), engineName, cfg)
	if err != nil {
		return Result{}, err
	}
	defer be.close()

	run := &kvRun{spec: spec, mix: m, be: be, db: be.db}
	if spec.Dist == DistZipfian {
		run.zipf = newZipfian(spec.Records, spec.Theta)
	}
	st, err := m.open(run)
	if err != nil {
		return Result{}, fmt.Errorf("harness: open mix %q: %w", spec.Mix, err)
	}
	// Unpipelined net runs are the classic closed loop: a worker holds one of
	// Conns slots for the length of each step, so at most one request per
	// pooled connection is ever outstanding.
	var slots chan struct{}
	if spec.Net && !spec.Pipeline {
		slots = make(chan struct{}, spec.Conns)
	}
	gated := func(w *kvWorker, op func(*kvWorker) error) func() error {
		if slots == nil {
			return func() error { return op(w) }
		}
		return func() error {
			slots <- struct{}{}
			defer func() { <-slots }()
			return op(w)
		}
	}
	res, err := measure(cfg, func(id int, rng *rand.Rand) (step, done func() error) {
		w := &kvWorker{rng: rng, buf: make([]byte, spec.ValueBytes), fi: id}
		if d, ok := st.(interface{ drain(*kvWorker) error }); ok {
			done = gated(w, d.drain)
		}
		return gated(w, st.step), done
	})
	if q, ok := st.(interface{ quiesce() }); ok {
		q.quiesce() // before anything snapshots the engines
	}
	if err != nil {
		return Result{}, err
	}
	res.Workload = spec.Name()
	if err := be.finish(&res); err != nil {
		return res, err
	}
	res.derive()
	st.counters(res.Counters)
	if err := st.audit(); err != nil {
		return res, err
	}
	return res, be.validate()
}

// MustRunKV is RunKV for experiment drivers, where a config error is a bug.
func MustRunKV(spec KVSpec, engineName string, cfg RunConfig) Result {
	r, err := RunKV(spec, engineName, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// --- mixes a, b, c, f: single-key reads and writes ---

// ycsbRun is the run state of the plain read/write mixes: reads are gets
// (batched, or served by a follower, when the spec asks), writes blind puts
// or, for mix.rmw, audited increments of the record's leading counter.
type ycsbRun struct {
	*kvRun
	initial uint64 // mix.rmw: sum of all leading counters after the load

	updates atomic.Uint64 // committed read-modify-writes
	batches atomic.Uint64 // batch flushes

	followerReads  atomic.Uint64 // reads served by a replica
	followerStale  atomic.Uint64 // ErrTooStale fallbacks to the primary
	followerMisses atomic.Uint64 // not-yet-applied misses, served by the primary
	hiWatermark    atomic.Uint64 // highest watermark any worker observed
}

func openYCSB(run *kvRun) (mixRun, error) {
	if err := run.loadRandom(); err != nil {
		return nil, err
	}
	y := &ycsbRun{kvRun: run}
	if run.mix.rmw {
		y.initial = y.leadingSum()
	}
	return y, run.catchUp()
}

// leadingSum totals every record's leading 8-byte counter (quiescent).
func (y *ycsbRun) leadingSum() uint64 {
	var sum uint64
	for i := 0; i < y.spec.Records; i++ {
		if v, ok := y.be.peek(ycsbKey(i)); ok {
			sum += binary.LittleEndian.Uint64(v)
		}
	}
	return sum
}

func (y *ycsbRun) counters(out map[string]int64) {
	if y.mix.rmw {
		out["harness.updates"] = int64(y.updates.Load())
		out["harness.fsum"] = int64(y.leadingSum())
	}
	if y.spec.BatchSize > 1 {
		out["harness.batches"] = int64(y.batches.Load())
	}
	if y.spec.Replicas > 0 {
		out["harness.follower_reads"] = int64(y.followerReads.Load())
		out["harness.follower_stale"] = int64(y.followerStale.Load())
		out["harness.follower_misses"] = int64(y.followerMisses.Load())
	}
}

// audit checks the read-modify-write mix for lost updates: every committed
// update bumps one leading counter by one, so their total must have grown
// by exactly the number of updates.
func (y *ycsbRun) audit() error {
	if !y.mix.rmw {
		return nil
	}
	if grew, want := y.leadingSum()-y.initial, y.updates.Load(); grew != want {
		return fmt.Errorf("harness: leading counters grew by %d over %d committed read-modify-writes — lost or phantom updates", grew, want)
	}
	return nil
}

func (y *ycsbRun) step(w *kvWorker) error {
	isRead := w.rng.Intn(100) < y.mix.readPct
	if y.spec.CrossPct > 0 && y.spec.CrossKeys > 1 && w.rng.Intn(100) < y.spec.CrossPct {
		return y.crossOp(w, isRead)
	}
	return y.singleOp(w, isRead)
}

// get reads a loaded record from the primary; a miss is a bug.
func (y *ycsbRun) get(key []byte) error {
	_, err := y.db.Get(key)
	if errors.Is(err, kv.ErrNotFound) {
		return fmt.Errorf("record %s missing", key)
	}
	return err
}

// bump is the read-modify-write: increment each key's leading counter in
// place, preserving the payload tail, as one closure transaction.
func (y *ycsbRun) bump(keys ...[]byte) error {
	err := y.db.Update(func(tx kv.Txn) error {
		for _, k := range keys {
			v, err := tx.Get(k)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)+1)
			if err := tx.Put(k, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		y.updates.Add(uint64(len(keys)))
	}
	return err
}

// singleOp is one single-key operation, batched when the spec asks for it.
func (y *ycsbRun) singleOp(w *kvWorker, isRead bool) error {
	key := ycsbKey(y.record(w))
	batched := y.spec.BatchSize > 1
	switch {
	case isRead && batched:
		return y.enqueue(w, kv.Op{Kind: kv.OpGet, Key: key})
	case isRead && len(y.be.followers) > 0:
		return y.followerRead(w, key)
	case isRead:
		return y.get(key)
	case y.mix.rmw:
		return y.bump(key)
	}
	w.rng.Read(w.buf)
	if batched {
		return y.enqueue(w, kv.Op{Kind: kv.OpPut, Key: key, Value: append([]byte(nil), w.buf...)})
	}
	return y.db.Put(key, w.buf)
}

// followerRead serves one read from a replica. With Staleness set, the
// read demands floor = hi - Staleness against the highest watermark any
// worker has observed — a bounded-staleness contract the replica must keep
// up with — and falls back to the primary when it answers ErrTooStale. A
// miss (the replica has not applied the record's load yet) also falls
// back; a successful read must never report a revision above its
// watermark.
func (y *ycsbRun) followerRead(w *kvWorker, key []byte) error {
	f := y.be.followers[w.fi%len(y.be.followers)]
	w.fi++
	var floor kv.Revision
	if y.spec.Staleness > 0 {
		if hi := y.hiWatermark.Load(); hi > uint64(y.spec.Staleness) {
			floor = kv.Revision(hi - uint64(y.spec.Staleness))
		}
	}
	_, rev, wm, err := f.ReadAt(key, floor)
	switch {
	case errors.Is(err, kv.ErrTooStale):
		y.followerStale.Add(1)
	case errors.Is(err, kv.ErrNotFound):
		y.followerMisses.Add(1)
	case err != nil:
		return err
	default:
		if rev > wm {
			return fmt.Errorf("follower read %s: rev %d above watermark %d", key, rev, wm)
		}
		y.followerReads.Add(1)
		for {
			hi := y.hiWatermark.Load()
			if uint64(wm) <= hi || y.hiWatermark.CompareAndSwap(hi, uint64(wm)) {
				break
			}
		}
		return nil
	}
	return y.get(key)
}

// enqueue buffers a batch op, flushing at BatchSize.
func (y *ycsbRun) enqueue(w *kvWorker, op kv.Op) error {
	w.pending = append(w.pending, op)
	if len(w.pending) >= y.spec.BatchSize {
		return y.drain(w)
	}
	return nil
}

// drain flushes the worker's pending batch, if any (RunKV also calls it
// after the worker's last step).
func (y *ycsbRun) drain(w *kvWorker) error {
	if len(w.pending) == 0 {
		return nil
	}
	ops := w.pending
	w.pending = w.pending[:0]
	results, err := y.db.Batch(ops)
	if err != nil {
		return err
	}
	y.batches.Add(1)
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("batch op %d (%s): %w", i, ops[i].Key, r.Err)
		}
	}
	return nil
}

// crossKeys draws CrossKeys distinct records. On a multi-System backend it
// redraws a bounded number of times until the keys span at least two
// Systems; a degenerate keyspace falls back to whatever the last draw
// placed (the transaction then simply takes the local path).
func (y *ycsbRun) crossKeys(w *kvWorker) [][]byte {
	var keys [][]byte
	multi := y.multiSystem()
	for round := 0; round < 16; round++ {
		seen := map[int]bool{}
		systems := map[int]bool{}
		keys = keys[:0]
		for len(keys) < y.spec.CrossKeys {
			rec := y.record(w)
			if seen[rec] {
				continue
			}
			seen[rec] = true
			k := ycsbKey(rec)
			keys = append(keys, k)
			systems[y.be.served.Domain(k)] = true
		}
		if !multi || len(systems) > 1 {
			break
		}
	}
	return keys
}

// crossOp runs one multi-key transaction: a snapshot read of the keys, or a
// write over all of them. The write mirrors the mix's single-key semantics
// — blind puts, or read-modify-write counter increments — so the
// accesses/op delta between x=0 and x>0 measures the commit protocol, not a
// change in operation shape.
func (y *ycsbRun) crossOp(w *kvWorker, isRead bool) error {
	keys := y.crossKeys(w)
	if !isRead && y.mix.rmw {
		return y.bump(keys...)
	}
	// Values are drawn before the transaction so a commit retry does not
	// consume extra randomness (Update bodies re-execute on conflict).
	vals := make([][]byte, len(keys))
	for i := range vals {
		if !isRead {
			vals[i] = make([]byte, y.spec.ValueBytes)
			w.rng.Read(vals[i])
		}
	}
	return y.db.Update(func(tx kv.Txn) error {
		for i, k := range keys {
			var err error
			if isRead {
				_, err = tx.Get(k)
			} else {
				err = tx.Put(k, vals[i])
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// --- mixes d, e: reads plus inserts past the loaded key space ---

// growth counts the records a run inserts past its loaded key space.
type growth struct {
	inserts   atomic.Int64  // records inserted
	fallbacks atomic.Uint64 // inserts converted to overwrites (arena full)
}

// insert runs put on a fresh id past the loaded space. When the arena
// cannot hold more records (time-based runs can outgrow any sizing), the
// insert degrades to overwrite of an existing record, so the run keeps its
// operation mix instead of failing.
func (g *growth) insert(loaded int, put func(id int) error, overwrite func() error) error {
	err := put(loaded + int(g.inserts.Add(1)) - 1)
	if errors.Is(err, kv.ErrArenaFull) {
		g.inserts.Add(-1)
		g.fallbacks.Add(1)
		return overwrite()
	}
	return err
}

func (g *growth) counters(out map[string]int64) {
	out["harness.inserts"] = g.inserts.Load()
	out["harness.insert_fallbacks"] = int64(g.fallbacks.Load())
}

// scanTally counts the scans of a run and the entries they yielded.
type scanTally struct{ scans, scanned atomic.Uint64 }

func (t *scanTally) add(yielded int) {
	t.scans.Add(1)
	t.scanned.Add(uint64(yielded))
}

func (t *scanTally) counters(out map[string]int64) {
	out["harness.scans"] = int64(t.scans.Load())
	out["harness.scanned"] = int64(t.scanned.Load())
}

// insertRun is the run state of the growing-keyspace mixes: 5% of the
// steps insert a new record, the rest read — latest-skewed gets, or short
// ordered scans.
type insertRun struct {
	*kvRun
	growth
	scanTally
	scans bool
	// latest draws the latest-skewed ranks of the get variant: a zipfian
	// generator, whatever Dist says about the other mixes.
	latest *zipfian
}

func openLatest(run *kvRun) (mixRun, error) {
	latest := run.zipf
	if latest == nil {
		latest = newZipfian(run.spec.Records, run.spec.Theta)
	}
	return &insertRun{kvRun: run, latest: latest}, run.loadRandom()
}

func openScans(run *kvRun) (mixRun, error) {
	return &insertRun{kvRun: run, scans: true}, run.loadRandom()
}

func (n *insertRun) counters(out map[string]int64) {
	n.growth.counters(out)
	if n.scans {
		n.scanTally.counters(out)
	}
}

func (n *insertRun) audit() error { return nil }

// records returns the current record-space size (grows under inserts).
func (n *insertRun) records() int {
	return n.spec.Records + int(n.inserts.Load())
}

func (n *insertRun) step(w *kvWorker) error {
	switch {
	case w.rng.Intn(100) >= n.mix.readPct:
		w.rng.Read(w.buf)
		return n.insert(n.spec.Records,
			func(id int) error { return n.db.Put(ycsbKey(id), w.buf) },
			func() error { return n.db.Put(ycsbKey(w.rng.Intn(n.spec.Records)), w.buf) })
	case n.scans:
		return n.scan(w)
	}
	return n.readLatest(w)
}

// readLatest draws a latest-skewed rank — rank 0 is the most recently
// inserted record — per YCSB's SkewedLatestGenerator. A miss on a freshly
// inserted id is tolerated (its Put may still be in flight).
func (n *insertRun) readLatest(w *kvWorker) error {
	cur := n.records()
	rank := n.latest.next(w.rng)
	if rank >= cur {
		rank %= cur
	}
	key := ycsbKey(cur - 1 - rank)
	_, err := n.db.Get(key)
	if errors.Is(err, kv.ErrNotFound) {
		if cur-1-rank >= n.spec.Records {
			return nil // racing a concurrent insert: benign
		}
		return fmt.Errorf("record %s missing", key)
	}
	return err
}

// scan is a short ordered scan: a uniform length in [1, ScanMax] starting
// at a drawn record key, through the kv.Scan cursor.
func (n *insertRun) scan(w *kvWorker) error {
	start := n.draw(w, n.records())
	length := 1 + w.rng.Intn(n.spec.ScanMax)
	it := n.db.Scan(ycsbKey(start), nil, length)
	got := 0
	for it.Next() {
		got++
	}
	if err := it.Err(); err != nil {
		return err
	}
	if got == 0 && start < n.spec.Records {
		// A start key at or past the loaded range can race an in-flight
		// insert to an empty tail; a loaded record always has successors.
		return fmt.Errorf("scan from %s yielded nothing", ycsbKey(start))
	}
	n.add(got)
	return nil
}

// --- mix bank: transfers under a conserved total ---

// bankRun is the run state of the bank mix: every operation transfers
// between two 8-byte balances, and the audit requires the total conserved.
type bankRun struct{ *kvRun }

func openBank(run *kvRun) (mixRun, error) {
	return bankRun{run}, run.load(func(val []byte) {
		binary.LittleEndian.PutUint64(val, bankInitial)
	})
}

func (b bankRun) counters(map[string]int64) {}

func (b bankRun) audit() error {
	var total uint64
	for i := 0; i < b.spec.Records; i++ {
		v, ok := b.be.peek(ycsbKey(i))
		if !ok {
			return fmt.Errorf("harness: bank account %d missing after run", i)
		}
		total += binary.LittleEndian.Uint64(v)
	}
	if want := uint64(b.spec.Records) * bankInitial; total != want {
		return fmt.Errorf("harness: bank total %d != %d — atomicity violated", total, want)
	}
	return nil
}

// step moves a random amount between two accounts, multi-System for
// CrossPct of operations on the cluster. Redraws for the wanted placement
// are bounded: a degenerate account set must not hang the run, so after the
// bound the last distinct pair is used with whatever placement it has.
func (b bankRun) step(w *kvWorker) error {
	multi := b.multiSystem()
	wantCross := multi && w.rng.Intn(100) < b.spec.CrossPct
	from := b.record(w)
	to := (from + 1) % b.spec.Records
	for round := 0; round < 64; round++ {
		x, y := b.record(w), b.record(w)
		if x == y {
			continue
		}
		from, to = x, y
		if !multi ||
			(b.be.served.Domain(ycsbKey(from)) != b.be.served.Domain(ycsbKey(to))) == wantCross {
			break
		}
	}
	fromKey, toKey := ycsbKey(from), ycsbKey(to)
	amt := uint64(w.rng.Intn(10))
	return b.db.Update(func(tx kv.Txn) error {
		fv, err := tx.Get(fromKey)
		if err != nil {
			return err
		}
		f := binary.LittleEndian.Uint64(fv)
		if f < amt {
			return nil // insufficient funds: read-only commit
		}
		tv, err := tx.Get(toKey)
		if err != nil {
			return err
		}
		t := binary.LittleEndian.Uint64(tv)
		var nf, nt [8]byte
		binary.LittleEndian.PutUint64(nf[:], f-amt)
		binary.LittleEndian.PutUint64(nt[:], t+amt)
		if err := tx.Put(fromKey, nf[:]); err != nil {
			return err
		}
		return tx.Put(toKey, nt[:])
	})
}

// kvEngines is the series set of the KV experiments: the full RH1 stack
// against the software baseline and the other hybrids.
var kvEngines = []string{EngRH1Mix2, EngStdHy, EngTL2, EngNoRec}

// SweepKV measures every KV engine at every thread count for one spec, on
// whichever backend the spec selects.
func SweepKV(sc Scale, spec KVSpec) []Result {
	out := make([]Result, 0, len(kvEngines)*len(sc.Threads))
	for _, eng := range kvEngines {
		for _, th := range sc.Threads {
			out = append(out, MustRunKV(spec, eng, sc.cfg(th)))
		}
	}
	return out
}
