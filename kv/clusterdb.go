package kv

import (
	"fmt"
	"slices"

	"rhtm"
	"rhtm/cluster"
	"rhtm/internal/scratch"
	"rhtm/obs"
	"rhtm/wal"
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
}

// NewCluster builds a DB over c. Call during single-threaded setup.
func NewCluster(c *cluster.Cluster, opts ...Option) *ClusterDB {
	db := &ClusterDB{c: c}
	lay := make(layout, c.NumSystems(), c.NumSystems()+1)
	for i := range lay {
		n := c.Node(i)
		lay[i] = Stream{Name: fmt.Sprintf("sys-%02d", i), Engine: n.Engine(), Store: n.Store()}
	}
	db.init(applyOptions(opts), append(lay, Stream{Name: "coord"}),
		func() *clusterSession { return newClusterSession(c) })
	db.bind = c.AttachWAL
	// 2PC phase timings flow from the cluster's commit path into the DB's
	// registry; nil instruments (WithMetrics(nil)) disable the timing.
	c.SetMetrics(db.met.prepare2PC, db.met.finish2PC)
	return db
}

// clusterSession is one pooled cluster client, with the closure Txn it
// reuses across attempts, its transaction body bound once, when the
// session opens, and the batch it converts for the client.
type clusterSession struct {
	c    *cluster.Cluster
	cl   *cluster.Client
	ct   clusterTxn
	body func(t *cluster.Txn) error // s.run
	o    operation
	cops []cluster.BatchOp // an unleased batch, converted
}

func newClusterSession(c *cluster.Cluster) *clusterSession {
	s := &clusterSession{c: c, cl: c.NewClient()}
	s.body = s.run
	return s
}

func (s *clusterSession) op() *operation { return &s.o }

// bind implements session: the client reports its 2pc_prepare, wal_sync
// (the coordinator decision sync) and 2pc_finish stages to sink.
func (s *clusterSession) bind(sink obs.StageRecorder) { s.cl.SetStageSink(sink) }

func (s *clusterSession) engineName() string { return s.c.Node(0).Engine().Name() }

// attempt implements session with one cluster.Client call. A scan is the
// validated snapshot scan (no read set, no commit validation), a follower
// read one engine transaction on the owning System, and a batch without
// lease attachments the native one: a single engine transaction when one
// System owns every key — what the server's per-domain batcher lanes
// always send, and every single-key operation — instead of one
// buffered-transaction read per key. Everything else, a leased batch
// included (its lease records ride the same transaction), runs its body
// on the cluster's optimistic buffered transaction (local commit when one
// System owns the footprint, two-phase commit when several do). Conflicts
// — a read that met a pending intent, a failed validation, a refused
// prepare, a torn scan pass — come back as cluster.ErrConflict for the
// core's Retry to run the attempt again.
func (s *clusterSession) attempt() (Revision, error) {
	o := &s.o
	switch {
	case o.kind == opScan:
		entries, err := s.cl.ScanSnapshot(o.start, o.end, o.limit)
		if err == nil {
			o.entries = clusterEntries(entries)
		}
		return 0, err
	case o.kind == opReadAt:
		rec, wm, err := s.cl.ReadClock(o.key)
		o.val, o.rev, o.wm, o.found = rec.Value, rec.Rev, wm, rec.Found
		return 0, err
	case (o.kind == opBatch || o.kind == opSingle) && !slices.ContainsFunc(o.ops, leased):
		return s.batch()
	}
	err := s.cl.Txn(s.body)
	s.ct.t = nil
	return s.cl.LastCommitRev(), err
}

func leased(op Op) bool { return op.Lease != 0 }

// run is the body of every buffered-transaction attempt.
func (s *clusterSession) run(t *cluster.Txn) error {
	s.ct.t = t
	return s.o.txn(&s.ct)
}

// batch is one attempt of the native batch; a Get or a Delete of an absent
// key yields ErrNotFound in its result.
func (s *clusterSession) batch() (Revision, error) {
	o := &s.o
	for _, op := range o.ops {
		cop := cluster.BatchOp{Kind: cluster.BatchDelete, Key: op.Key}
		switch op.Kind {
		case OpGet:
			cop.Kind = cluster.BatchGet
		case OpPut:
			cop.Kind, cop.Value = cluster.BatchPut, op.Value
		}
		s.cops = append(s.cops, cop)
	}
	cres, err := s.cl.Batch(s.cops)
	s.cops = scratch.Release(s.cops)
	if err != nil {
		return 0, err
	}
	for i, op := range o.ops {
		switch {
		case op.Kind == OpPut:
		case cres[i].Found:
			o.res[i] = OpResult{Value: cres[i].Value}
		default:
			o.res[i] = OpResult{Err: ErrNotFound}
		}
	}
	return s.cl.LastCommitRev(), nil
}

// publish implements session: the cluster's commit path logs to its WAL
// streams itself, before Client.Txn returns.
func (s *clusterSession) publish() error { return nil }

// checkpoint implements session: the client writes the cluster's set — the
// one ws the DB holds — under the 2PC drain lock.
func (s *clusterSession) checkpoint(*wal.Set) error { return s.cl.CheckpointWAL() }

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
	present, err := t.t.Has(key)
	if err != nil {
		return mapErr(err)
	}
	if !present {
		return ErrNotFound
	}
	_, err = t.t.Delete(key)
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
