package kv

import (
	"sync"
	"time"

	"rhtm"
	"rhtm/cluster"
	"rhtm/obs"
)

// ClusterDB implements DB over a cluster.Cluster: the share-nothing
// multi-System router. Single-key operations are one-op batches, one local
// transaction on the owning System; Update closures run the cluster's
// optimistic buffered transaction (local commit when one System owns the
// footprint, two-phase commit when several do); Batch is one engine
// transaction when one System owns every key and that same buffered
// transaction when several do (cluster.Client.Batch); Scan is the
// validated snapshot scan (cluster.Client.ScanSnapshot). The coordination
// surface rides the same machinery: revisions are each System's store
// clock (validated by 2PC prepares), lease records route like any other
// key — a revoke spanning Systems is one 2PC commit — and Watch fans in
// every System's commit log, merged by revision.
//
// ClusterDB is safe for concurrent use by any number of goroutines: cluster
// clients are not, so it multiplexes callers over the core's bounded session
// pool, one client per session. Each client registers one engine thread per
// System (permanently), so the pool's bound is what keeps a concurrency
// burst within every System's thread limit.
type ClusterDB struct {
	core[*clusterSession]

	c *cluster.Cluster

	// frMu serializes the follower-read clock threads (one lazily-registered
	// engine thread per System — see clockRev in repl.go).
	frMu  sync.Mutex
	frThs []rhtm.Thread
}

// NewCluster builds a DB over c. Call during single-threaded setup.
func NewCluster(c *cluster.Cluster, opts ...Option) *ClusterDB {
	db := &ClusterDB{c: c}
	db.init(applyOptions(opts), db,
		func() *clusterSession { return &clusterSession{c: c, cl: c.NewClient()} },
		func() []logSource {
			// One dedicated thread per System drains that System's ring.
			var sources []logSource
			for i := 0; i < c.NumSystems(); i++ {
				n := c.Node(i)
				sources = append(sources, logSource{
					log: n.Store().Events(),
					run: n.Engine().NewThread().Atomic,
				})
			}
			return sources
		})
	// 2PC phase timings flow from the cluster's commit path into the DB's
	// registry; nil instruments (WithMetrics(nil)) disable the timing.
	c.SetMetrics(db.met.prepare2PC, db.met.finish2PC)
	return db
}

// Cluster returns the underlying cluster (diagnostics, stats).
func (db *ClusterDB) Cluster() *cluster.Cluster { return db.c }

// clusterSession is one pooled cluster client.
type clusterSession struct {
	c  *cluster.Cluster
	cl *cluster.Client
}

// bind implements session: the client reports its 2pc_prepare, wal_sync
// (the coordinator decision sync) and 2pc_finish stages to sink.
func (s *clusterSession) bind(sink obs.StageRecorder) { s.cl.SetStageSink(sink) }

func (s *clusterSession) engineName() string { return s.c.Node(0).Engine().Name() }

// attempt implements session via one run of the cluster's optimistic
// buffered transaction (local commit when one System owns the footprint,
// two-phase commit when several do). Its conflicts — a read that met a
// pending intent, a failed validation, a refused prepare — come back as
// cluster.ErrConflict for the core's Retry to run the closure again.
func (s *clusterSession) attempt(fn func(tx Txn) error) (Revision, error) {
	err := s.cl.Txn(func(t *cluster.Txn) error {
		return fn(&clusterTxn{bufferedTxn{t: t}})
	})
	return s.cl.LastCommitRev(), err
}

// publish implements session: the cluster's commit path logs to its WAL
// streams itself, before Client.Txn returns.
func (s *clusterSession) publish() error { return nil }

// Metrics implements DB: the registry's host-side instruments plus the
// live engine taxonomy summed over every System and the 2PC protocol
// counters; store occupancy is sampled with one read-only transaction per
// System on a pooled client.
func (db *ClusterDB) Metrics() obs.Snapshot {
	snap := db.reg.Snapshot()
	var es rhtm.Stats
	for i := 0; i < db.c.NumSystems(); i++ {
		es.Add(db.c.Node(i).Engine().Live())
	}
	mergeEngineStats(&snap, es)
	s := db.claim(nil)
	ss, err := s.cl.StoreStats()
	db.release(s)
	if err == nil {
		mergeStoreStats(&snap, ss)
	}
	mergeClusterCounters(&snap, db.c.Counters())
	return snap
}

// Domains implements DB: one commit domain per System.
func (db *ClusterDB) Domains() int { return db.c.NumSystems() }

// Domain implements DB: the System the router places key on. A Batch whose
// keys share a domain is one engine transaction there (cluster.Client's
// batchLocal); one that spans domains pays 2PC.
func (db *ClusterDB) Domain(key []byte) int { return db.c.Router().SystemFor(key) }

// Get implements DB: a one-op batch.
func (db *ClusterDB) Get(key []byte) ([]byte, error) {
	return db.single(Op{Kind: OpGet, Key: key})
}

// Put implements DB: a one-op batch (a leased one takes the core's
// closure-transaction batch, which writes the lease record too).
func (db *ClusterDB) Put(key, value []byte, opts ...PutOption) error {
	_, err := db.single(Op{Kind: OpPut, Key: key, Value: value, Lease: LeaseOf(opts...)})
	return err
}

// Delete implements DB: a one-op batch.
func (db *ClusterDB) Delete(key []byte) error {
	_, err := db.single(Op{Kind: OpDelete, Key: key})
	return err
}

// single runs op as a one-op BatchTraced — the batch path's one engine
// transaction on the owning System — and returns its value or its
// per-op error. It does not go through Batch: DB-level trace sampling
// covers Update and Batch calls, not single-key operations.
func (db *ClusterDB) single(op Op) ([]byte, error) {
	res, err := db.BatchTraced(nil, []Op{op})
	if err != nil {
		return nil, err
	}
	return res[0].Value, res[0].Err
}

// BatchTraced shadows the core's closure-transaction batch with the native
// one: a single engine transaction when one System owns every key (what the
// server's per-domain batcher lanes always send) instead of one
// buffered-transaction read per key. A batch that spans Systems (an
// explicit Batch call: the KindBatch handler, in-process callers) is the
// buffered transaction either way. Batches carrying lease attachments take
// the core's path, where the lease records ride the same transaction. The
// engine stage covers the whole batch; 2PC phase and WAL stages come from
// the client's stage sink. Watchers are woken when a Put or a Delete of a
// present key committed.
func (db *ClusterDB) BatchTraced(sink obs.TraceSink, ops []Op) ([]OpResult, error) {
	for _, op := range ops {
		if reservedKey(op.Key) {
			return nil, ErrReservedKey
		}
		if op.Lease != 0 {
			return db.core.BatchTraced(sink, ops)
		}
	}
	s := db.claim(sink)
	defer db.release(s)
	cops := make([]cluster.BatchOp, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case OpGet:
			cops[i] = cluster.BatchOp{Kind: cluster.BatchGet, Key: op.Key}
		case OpPut:
			cops[i] = cluster.BatchOp{Kind: cluster.BatchPut, Key: op.Key, Value: op.Value}
		default:
			cops[i] = cluster.BatchOp{Kind: cluster.BatchDelete, Key: op.Key}
		}
	}
	var engStart time.Time
	if sink != nil {
		engStart = time.Now()
	}
	var cres []cluster.BatchResult
	err := Retry(func(int) error {
		var err error
		cres, err = s.cl.Batch(cops)
		return mapErr(err)
	})
	if sink != nil {
		sink.Stage(obs.StageEngine, time.Since(engStart))
	}
	if err != nil {
		return nil, err
	}
	results := make([]OpResult, len(ops))
	wrote := false
	for i, op := range ops {
		switch op.Kind {
		case OpGet:
			if cres[i].Found {
				results[i] = OpResult{Value: cres[i].Value}
			} else {
				results[i] = OpResult{Err: ErrNotFound}
			}
		case OpPut:
			results[i] = OpResult{}
			wrote = true
		default:
			if !cres[i].Found {
				results[i] = OpResult{Err: ErrNotFound}
			} else {
				wrote = true
			}
		}
	}
	if wrote {
		if sink != nil {
			sink.SetCommitRev(s.cl.LastCommitRev())
		}
		db.hub.wake()
	}
	return results, nil
}

// rawScan shadows the core's closure-transaction scan with the cluster's
// validated snapshot scan (no read set, no commit validation).
func (db *ClusterDB) rawScan(start, end []byte, limit int) ([]Entry, error) {
	s := db.claim(nil)
	defer db.release(s)
	var entries []cluster.Entry
	if err := Retry(func(int) error {
		var err error
		entries, err = s.cl.ScanSnapshot(start, end, limit)
		return mapErr(err)
	}); err != nil {
		return nil, err
	}
	return clusterEntries(entries), nil
}

// clusterEntries converts the cluster's entry type.
func clusterEntries(in []cluster.Entry) []Entry {
	out := make([]Entry, len(in))
	for i, e := range in {
		out[i] = Entry{Key: e.Key, Value: e.Value}
	}
	return out
}

// bufferedTxn is the Txn of every optimistic closure, written once over
// cluster.Txn for ClusterDB closures and the network client's (BufferedTxn):
// reserved keys are refused, scans are clamped to the user keyspace, and
// absence is ErrNotFound. A lease attachment is buffered with its write; the
// network client ships it and the server attaches it.
type bufferedTxn struct {
	t *cluster.Txn
}

// BufferedTxn returns the Txn view of t. The network client runs its
// closures on one whose reads go through the wire.
func BufferedTxn(t *cluster.Txn) Txn { return &bufferedTxn{t: t} }

// Get implements Txn.
func (t *bufferedTxn) Get(key []byte) ([]byte, error) {
	if reservedKey(key) {
		return nil, ErrReservedKey
	}
	return t.getRaw(key)
}

// Revision implements Txn: the committed observation, even after a write
// of the key in the same closure.
func (t *bufferedTxn) Revision(key []byte) (Revision, error) {
	if reservedKey(key) {
		return 0, ErrReservedKey
	}
	rev, _, err := t.t.Revision(key)
	return rev, mapErr(err)
}

// Put implements Txn. Writes are buffered; capacity errors (ErrArenaFull,
// ErrTooLarge) surface at commit.
func (t *bufferedTxn) Put(key, value []byte, opts ...PutOption) error {
	if reservedKey(key) {
		return ErrReservedKey
	}
	return t.putRaw(key, value, LeaseOf(opts...))
}

// Delete implements Txn.
func (t *bufferedTxn) Delete(key []byte) error {
	if reservedKey(key) {
		return ErrReservedKey
	}
	return t.deleteRaw(key)
}

// Scan implements Txn: the committed snapshot overlaid with this
// transaction's buffered writes, every yielded committed entry recorded as
// a read for commit validation; clamped to the user keyspace.
func (t *bufferedTxn) Scan(start, end []byte, limit int) Iterator {
	start, end, empty := clampUserRange(start, end)
	if empty {
		return emptyIter()
	}
	return t.scanRaw(start, end, limit)
}

func (t *bufferedTxn) getRaw(key []byte) ([]byte, error) {
	v, ok, err := t.t.Get(key)
	if err != nil {
		return nil, mapErr(err)
	}
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

func (t *bufferedTxn) putRaw(key, value []byte, lease LeaseID) error {
	t.t.PutLease(key, value, lease)
	return nil
}

// deleteRaw buffers key's removal only when the key is present as of the
// transaction; either way its committed observation is recorded.
func (t *bufferedTxn) deleteRaw(key []byte) error {
	if _, err := t.getRaw(key); err != nil {
		return err
	}
	_, err := t.t.Delete(key)
	return mapErr(err)
}

func (t *bufferedTxn) scanRaw(start, end []byte, limit int) Iterator {
	entries, err := t.t.Scan(start, end, limit)
	if err != nil {
		return errIter(mapErr(err))
	}
	return &entriesIter{entries: clusterEntries(entries)}
}

// clusterTxn is a ClusterDB closure's Txn: the shared buffered one, plus
// the lease records (coordTxn) — a WithLease Put records the key in its
// lease's key list within the same transaction.
type clusterTxn struct {
	bufferedTxn
}

// Put implements Txn.
func (t *clusterTxn) Put(key, value []byte, opts ...PutOption) error {
	return txnPut(t, key, value, opts)
}

func (t *clusterTxn) leaseOf(key []byte) (LeaseID, error) {
	lease, _, err := t.t.Lease(key)
	return lease, mapErr(err)
}
