package main

import (
	"fmt"
	"math/rand"
	"time"

	"rhtm"
	"rhtm/containers"
	"rhtm/kv"
	"rhtm/store"
	"rhtm/wal"
)

// kv-a: YCSB-A on kv.Local over a sharded store with a synchronous WAL.
// kv, store, engine and wal do all the work; no front end, no record layer.

const (
	kvGet = iota
	kvPut
)

var kvA = workload{
	name: "kv-a",
	why: "YCSB-A, zipfian, 100k records, on kv.Local + store.Sharded + WAL synced per commit: kv, store, engine and wal " +
		"do all the work, front end and record layer none; table-query's control",
	kinds:   []string{"kv.get", "kv.put"},
	callers: 1,
	inproc:  true,
	counted: 100_000,
	rate:    300_000,
	segment: 100 * time.Millisecond,
	build:   buildKVA,
}

const storeShards = 8

// recordKeyBytes is the length of a "user%08d" key.
const recordKeyBytes = 12

// localRig is kv.Local over an 8-shard store on one System: the data layer
// of kv-a, net-c-closed and table-query.
type localRig struct {
	e       *env
	records int
	sys     *rhtm.System
	eng     rhtm.Engine
	sh      *store.Sharded
	db      *kv.Local
}

// newLocalRig builds the System, engine and store, with room for records
// records of payload bytes each (plus slack for rewrites). open completes it.
func newLocalRig(e *env, records, payload int) (*localRig, error) {
	perRecord := store.RecordFootprintWords(recordKeyBytes, payload)
	arena := (records/storeShards+1)*perRecord*2 + 4096
	s, err := rhtm.NewSystem(rhtm.DefaultConfig(storeShards*(arena+store.DefaultLogWords+64) + 8192))
	if err != nil {
		return nil, err
	}
	return &localRig{e: e, records: records, sys: s, eng: mixedEngine(s, 0, e.tr),
		sh: store.NewSharded(s, storeShards, store.Options{ArenaWords: arena})}, nil
}

// load writes version 0 of every record on the store's setup path, which
// is seventeen times faster than transactions and what keeps three builds
// of 100k records inside a run.
func (r *localRig) load() error {
	tx := containers.SetupTx(r.sys)
	return loadRecords(func(k, v []byte) error { return r.sh.Put(tx, k, v) }, r.e.seed, r.records)
}

// open puts kv.Local over the store. With a device the DB recovers from it
// and logs to it; records loaded before the log existed are checkpointed
// into it, so the log alone rebuilds the store.
func (r *localRig) open(dev wal.Device) (err error) {
	if dev == nil {
		r.db = kv.NewLocal(r.eng, r.sh)
		return nil
	}
	if r.db, err = kv.OpenLocal(r.eng, r.sh, dev); err != nil {
		return err
	}
	if dev.Size() == 0 {
		return r.db.Checkpoint()
	}
	return nil
}

// loadRecords puts version 0 of records "user" records.
func loadRecords(put func(key, value []byte) error, seed int64, records int) error {
	for i := 0; i < records; i++ {
		v := make([]byte, valueBytes)
		fillValue(v, seed, uint32(i), 0)
		if err := put(appendKey(nil, "user", i), v); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}

func (r *localRig) engineLedger(l ledger) {
	engineLedger(l, r.eng.Snapshot())
	for k, v := range r.db.Metrics().Flatten() {
		l["db."+k] = v
	}
	if w := r.db.WAL(); w != nil {
		walLedger(l, w.Stats())
	}
}

func walLedger(l ledger, s wal.Stats) {
	l["wal.bytes"] += int64(s.Bytes)
	l["wal.frames"] += int64(s.Frames)
	l["wal.txns"] += int64(s.Txns)
	l["wal.syncs"] += int64(s.Syncs)
}

// verifyRecords checks that the store holds exactly version want[i] of record i.
func verifyRecords(get func(key []byte) ([]byte, bool), seed int64, want []uint32) error {
	scratch := make([]byte, valueBytes)
	var key []byte
	for i, w := range want {
		key = appendKey(key[:0], "user", i)
		v, ok := get(key)
		if !ok {
			return fmt.Errorf("record %s missing", key)
		}
		if seq, ok := checkValue(v, scratch, seed, uint32(i)); !ok || seq != w {
			return fmt.Errorf("record %s holds version %d (intact=%v), oracle says %d", key, seq, ok, w)
		}
	}
	return nil
}

type kvaStack struct {
	*localRig
	stg    *wal.MemStorage
	zipf   *zipfian
	oracle []uint32 // last version written per record
	seq    uint32
}

func buildKVA(e *env) (stack, error) {
	records := e.scaled(100_000)
	stg := wal.NewMemStorage()
	dev, err := stg.Device("wal")
	if err != nil {
		return nil, err
	}
	r, err := newLocalRig(e, records, valueBytes)
	if err != nil {
		return nil, err
	}
	if err := r.load(); err != nil {
		return nil, err
	}
	if err := r.open(deviceDecor{Device: dev, tr: e.tr}); err != nil {
		return nil, err
	}
	return &kvaStack{localRig: r, stg: stg, zipf: newZipfian(records, zipfTheta), oracle: make([]uint32, records)}, nil
}

func (st *kvaStack) caller(i int, _ bool) caller {
	return &kvaCaller{st: st, rng: callerRNG(st.e.seed, i),
		val: make([]byte, valueBytes), scratch: make([]byte, valueBytes)}
}

func (st *kvaStack) ledger() ledger {
	l := ledger{}
	st.engineLedger(l)
	return l
}

func (st *kvaStack) probe() (uint64, uint64) { return accesses(st.eng.Snapshot()), 0 }
func (st *kvaStack) settle() error           { return nil }
func (st *kvaStack) close()                  {}

// check: the oracle equals the store's contents, the store validates, and a
// DB opened on the log as a crash would leave it holds every acknowledged
// write.
func (st *kvaStack) check() error {
	peek := func(sh *store.Sharded, sys *rhtm.System) func([]byte) ([]byte, bool) {
		tx := containers.SetupTx(sys)
		return func(k []byte) ([]byte, bool) { return sh.Get(tx, k) }
	}
	if err := verifyRecords(peek(st.sh, st.sys), st.e.seed, st.oracle); err != nil {
		return fmt.Errorf("kv-a oracle: %w", err)
	}
	if err := st.sh.Validate(); err != nil {
		return err
	}
	img, err := st.stg.CrashImage(st.stg.Appended()).Device("wal")
	if err != nil {
		return err
	}
	quiet := &env{seed: st.e.seed, scale: st.e.scale, tr: newTracer(nil, true, 0)}
	rec, err := newLocalRig(quiet, st.records, valueBytes)
	if err != nil {
		return err
	}
	if err := rec.open(img); err != nil {
		return fmt.Errorf("kv-a recovery: %w", err)
	}
	if err := verifyRecords(peek(rec.sh, rec.sys), st.e.seed, st.oracle); err != nil {
		return fmt.Errorf("kv-a recovery lost an acknowledged write: %w", err)
	}
	return rec.sh.Validate()
}

type kvaCaller struct {
	st           *kvaStack
	rng          *rand.Rand
	key          []byte
	val, scratch []byte
}

func (c *kvaCaller) next() op {
	o := op{kind: kvGet, rec: c.st.zipf.record(c.rng)}
	if c.rng.Intn(100) < 50 {
		c.st.seq++
		o.kind, o.n = kvPut, int(c.st.seq)
	}
	return o
}

func (c *kvaCaller) do(o op) error {
	c.key = appendKey(c.key[:0], "user", o.rec)
	if o.kind == kvPut {
		fillValue(c.val, c.st.e.seed, uint32(o.rec), uint32(o.n))
		if err := c.st.db.Put(c.key, c.val); err != nil {
			return err
		}
		c.st.oracle[o.rec] = uint32(o.n)
		return nil
	}
	v, err := c.st.db.Get(c.key)
	if err != nil {
		return err
	}
	if seq, ok := checkValue(v, c.scratch, c.st.e.seed, uint32(o.rec)); !ok || seq != c.st.oracle[o.rec] {
		return fmt.Errorf("get %s: version %d (intact=%v), oracle says %d", c.key, seq, ok, c.st.oracle[o.rec])
	}
	return nil
}
