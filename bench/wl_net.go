package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"rhtm"
	"rhtm/client"
	"rhtm/cluster"
	"rhtm/containers"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/repl"
	"rhtm/server"
	"rhtm/store"
	"rhtm/wal"
)

// The two network workloads drive the same front end — client → loopback
// TCP → server → kv.DB — two ways. net-c-closed sends lone requests: the
// batcher's window, wire and client are the whole cost (the engine is
// ~14 µs of a ~1.2 ms round trip). stack-a keeps eight requests in flight
// per connection so the batcher merges, over a durable, replicated
// two-System cluster: a batcher change that wins net-c-closed by shrinking
// batches pays here in 2PC commits and WAL syncs.

const netConns = 2 // = nproc

const (
	netGet = iota
	netPut
	netTransfer
)

var netCClosed = workload{
	name: "net-c-closed",
	why: "YCSB-C, uniform, 10k records, no WAL, via client, TCP, server to kv.Local; 2 connections, 1 request in flight " +
		"each: batcher window, wire and client are the cost; bypasses wal/cluster/repl/table",
	kinds:   []string{"client.get"},
	callers: netConns,
	counted: 6_000,
	rate:    5_000,
	segment: 100 * time.Millisecond,
	build:   buildNetC,
}

var stackA = workload{
	name: "stack-a",
	why: "same front end, 16 callers so batches merge: YCSB-A on 20k records + 10% cross-System transfers over a " +
		"2-System cluster with WAL and replicas; the only load on cluster, group commit and repl",
	kinds:   []string{"client.get", "client.put", "client.transfer"},
	callers: stackACallers,
	counted: 36_000,
	rate:    5_000,
	segment: 100 * time.Millisecond,
	build:   buildStackA,
}

const engineName = "RH1 Mixed 100"

// frontEnd is a server over a decorated kv.DB and the clients that call it.
type frontEnd struct {
	dbd     *dbDecor
	reg     *obs.Registry
	srv     *server.Server
	addr    string
	cl      *client.Client
	sampled *client.Client // dialed on first use, trace sampling 1/1
	// conflicts counts the sampled pool's closure attempts that failed
	// server-side validation and re-ran: the kv-level retries of the
	// network edge, which no registry counts.
	conflicts conflictCounter
}

type conflictCounter struct{ n atomic.Int64 }

func (c *conflictCounter) TxnAttempt(sp obs.Span) {
	if sp.Outcome == obs.OutcomeConflict {
		c.n.Add(1)
	}
}

func newFrontEnd(db servedDB, tr *tracer) (*frontEnd, error) {
	f := &frontEnd{dbd: &dbDecor{servedDB: db, tr: tr}, reg: obs.NewRegistry()}
	f.srv = server.New(f.dbd, server.WithMetrics(f.reg), server.WithEngineName(engineName))
	addr, err := f.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.addr = addr.String()
	if f.cl, err = client.Dial(f.addr, client.WithConns(netConns)); err != nil {
		f.srv.Close()
		return nil, err
	}
	return f, nil
}

// client returns the pool callers share; the sampled pool stamps every
// request for the program's own stage tracing. Callers are made one after
// another, before any runs.
func (f *frontEnd) client(sampled bool) (*client.Client, error) {
	if !sampled {
		return f.cl, nil
	}
	if f.sampled == nil {
		cl, err := client.Dial(f.addr, client.WithConns(netConns), client.WithTraceSampling(1))
		if err != nil {
			return nil, err
		}
		cl.SetTracer(&f.conflicts)
		f.sampled = cl
	}
	return f.sampled, nil
}

func (f *frontEnd) close() {
	f.cl.Close()
	if f.sampled != nil {
		f.sampled.Close()
	}
	f.srv.Close()
}

// stageP50 is the median of one typed stage in a flight recorder, taken
// from the request kind that recorded it most often.
func stageP50(d obs.FlightDump, stage string) int64 {
	var best obs.StageStat
	for _, k := range d.Kinds {
		if s := k.Stages[stage]; s.Count > best.Count {
			best = s
		}
	}
	return int64(best.P50NS)
}

func (f *frontEnd) ledger(l ledger) {
	for k, v := range f.reg.Snapshot().Flatten() {
		l[k] = v // server.*
	}
	l["kv.calls"] = int64(f.dbd.calls.Load())
	l["client.conflicts"] = f.conflicts.n.Load()
	sd := f.srv.Flight().Dump()
	for _, st := range []string{obs.StageBatchWait, obs.StageQueueWait, obs.StageEngine, obs.StageWALSync} {
		l["g.stage."+st] = stageP50(sd, st)
	}
	if f.sampled != nil {
		l["g.stage."+obs.StageNet] = stageP50(f.sampled.Flight().Dump(), obs.StageNet)
	}
}

// --- net-c-closed ---

type netCStack struct {
	*localRig
	fe *frontEnd
}

func buildNetC(e *env) (stack, error) {
	records := e.scaled(10_000)
	r, err := newLocalRig(e, records, valueBytes)
	if err != nil {
		return nil, err
	}
	if err := r.load(); err != nil {
		return nil, err
	}
	r.open(nil)
	fe, err := newFrontEnd(r.db, e.tr)
	if err != nil {
		return nil, err
	}
	return &netCStack{localRig: r, fe: fe}, nil
}

func (st *netCStack) caller(i int, sampled bool) caller {
	cl, err := st.fe.client(sampled)
	return &netCCaller{st: st, cl: cl, err: err, rng: callerRNG(st.e.seed, i), scratch: make([]byte, valueBytes)}
}

func (st *netCStack) ledger() ledger {
	l := ledger{}
	st.engineLedger(l)
	st.fe.ledger(l)
	return l
}

func (st *netCStack) probe() (uint64, uint64) { return 0, 0 }
func (st *netCStack) settle() error           { return nil }
func (st *netCStack) close()                  { st.fe.close() }

func (st *netCStack) check() error {
	tx := containers.SetupTx(st.sys)
	err := verifyRecords(func(k []byte) ([]byte, bool) { return st.sh.Get(tx, k) },
		st.e.seed, make([]uint32, st.records))
	if err != nil {
		return fmt.Errorf("net-c-closed: %w", err)
	}
	return st.sh.Validate()
}

type netCCaller struct {
	st      *netCStack
	cl      *client.Client
	err     error // the sampled pool failed to dial
	rng     *rand.Rand
	key     []byte
	scratch []byte
}

func (c *netCCaller) next() op { return op{kind: netGet, rec: c.rng.Intn(c.st.records)} }

func (c *netCCaller) do(o op) error {
	if c.err != nil {
		return c.err
	}
	c.key = appendKey(c.key[:0], "user", o.rec)
	v, err := c.cl.Get(c.key)
	if err != nil {
		return err
	}
	if seq, ok := checkValue(v, c.scratch, c.st.e.seed, uint32(o.rec)); !ok || seq != 0 {
		return fmt.Errorf("get %s: not the loaded bytes", c.key)
	}
	return nil
}

// --- stack-a ---

const (
	accountBalance = 1000
	clusterSystems = 2
	stackACallers  = 16 // 8 in flight per connection
)

type stackAStack struct {
	e        *env
	records  int
	c        *cluster.Cluster
	db       *kv.ClusterDB
	group    *repl.Group
	follower *repl.Follower
	replica  *cluster.Cluster
	fe       *frontEnd
	zipf     *zipfian
	// bySys lists the account numbers each System owns, so a transfer can
	// always pick one account on each.
	bySys [clusterSystems][]int
}

func buildStackA(e *env) (stack, error) {
	st := &stackAStack{e: e, records: e.scaled(20_000)}
	accounts := e.scaled(1_000)
	// Arena: the records twice over (rewrites), the accounts, and intents
	// for every op of a full merged batch per caller.
	perSys := (st.records + accounts + clusterSystems - 1) / clusterSystems
	arena := perSys*store.RecordFootprintWords(recordKeyBytes, valueBytes)*2 +
		(stackACallers*server.DefaultBatchMax*2+64)*store.IntentFootprintWords(recordKeyBytes, valueBytes) + 4096
	newCluster := func(tr *tracer) (*cluster.Cluster, error) {
		return cluster.New(cluster.Config{
			Systems:    clusterSystems,
			ArenaWords: arena,
			NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
				if tr == nil {
					return rhtm.NewRH1(s, rhtm.DefaultRH1Options()), nil
				}
				return mixedEngine(s, 0, tr), nil
			},
		})
	}
	var err error
	if st.c, err = newCluster(e.tr); err != nil {
		return nil, err
	}
	stg := newStorageDecor(wal.NewMemStorage(), e.tr)
	if st.db, err = kv.OpenCluster(st.c, stg); err != nil {
		return nil, err
	}
	if st.group, err = repl.NewClusterGroup(st.db, stg); err != nil {
		return nil, err
	}
	// One replica System per primary System. Their engines carry no
	// decorator: replay runs beside the requests, not under them.
	if st.replica, err = newCluster(nil); err != nil {
		return nil, err
	}
	if st.follower, err = st.group.AddClusterReplica(st.replica); err != nil {
		return nil, err
	}
	// Through the DB: the cluster's log and its replicas see every write.
	put := func(k, v []byte) error { return st.db.Put(k, v) }
	if err := loadRecords(put, e.seed, st.records); err != nil {
		return nil, err
	}
	bal := make([]byte, 8)
	binary.LittleEndian.PutUint64(bal, accountBalance)
	for a := 0; a < accounts; a++ {
		k := appendKey(nil, "acct", a)
		if err := st.db.Put(k, bal); err != nil {
			return nil, err
		}
		sys := st.c.Router().SystemFor(k)
		st.bySys[sys] = append(st.bySys[sys], a)
	}
	for s, l := range st.bySys {
		if len(l) == 0 {
			return nil, fmt.Errorf("stack-a: System %d owns no account", s)
		}
	}
	if err := st.follower.WaitIdle(); err != nil {
		return nil, err
	}
	if st.fe, err = newFrontEnd(st.db, e.tr); err != nil {
		return nil, err
	}
	st.group.SetFlight(st.fe.srv.Flight())
	st.zipf = newZipfian(st.records, zipfTheta)
	return st, nil
}

func (st *stackAStack) caller(i int, sampled bool) caller {
	cl, err := st.fe.client(sampled)
	return &stackACaller{st: st, id: uint32(i), cl: cl, err: err, rng: callerRNG(st.e.seed, i),
		val: make([]byte, valueBytes), scratch: make([]byte, valueBytes)}
}

func (st *stackAStack) ledger() ledger {
	l := ledger{}
	for i := 0; i < clusterSystems; i++ {
		s := st.c.Node(i).Engine().Snapshot()
		engineLedger(l, s)
		l[fmt.Sprintf("sys.acc.%d", i)] = int64(accesses(s))
		l["repl.acc"] += int64(accesses(st.replica.Node(i).Engine().Snapshot()))
	}
	for k, v := range st.db.Metrics().Flatten() {
		l["db."+k] = v
	}
	ws := st.c.WAL()
	for _, w := range append(ws.Data[:len(ws.Data):len(ws.Data)], ws.Coord) {
		walLedger(l, w.Stats())
	}
	for k, v := range st.group.Metrics().Flatten() {
		l[k] = v // repl.*
	}
	st.fe.ledger(l)
	return l
}

func (st *stackAStack) probe() (uint64, uint64) { return 0, 0 }
func (st *stackAStack) settle() error           { return st.follower.WaitIdle() }

func (st *stackAStack) close() {
	st.fe.close()
	st.group.Close()
}

// check: the account total is conserved, every record is intact, the
// cluster validates, and the replicas hold the primary's revision and
// contents.
func (st *stackAStack) check() error {
	var total uint64
	accounts := 0
	for _, l := range st.bySys {
		for _, a := range l {
			v, ok := st.c.Peek(appendKey(nil, "acct", a))
			if !ok || len(v) != 8 {
				return fmt.Errorf("stack-a: account %d missing", a)
			}
			total += binary.LittleEndian.Uint64(v)
			accounts++
		}
	}
	if want := uint64(accounts) * accountBalance; total != want {
		return fmt.Errorf("stack-a: account total %d, want %d: a transfer tore", total, want)
	}
	scratch := make([]byte, valueBytes)
	for i := 0; i < st.records; i++ {
		k := appendKey(nil, "user", i)
		v, ok := st.c.Peek(k)
		if !ok {
			return fmt.Errorf("stack-a: record %s missing", k)
		}
		if _, ok := checkValue(v, scratch, st.e.seed, uint32(i)); !ok {
			return fmt.Errorf("stack-a: record %s holds torn bytes", k)
		}
	}
	if err := st.c.Validate(); err != nil {
		return err
	}
	if err := st.follower.WaitIdle(); err != nil {
		return err
	}
	for i := 0; i < clusterSystems; i++ {
		p, r := st.c.Node(i), st.replica.Node(i)
		pr := p.Store().Events().Rev(containers.SetupTx(p.System()))
		rr := r.Store().Events().Rev(containers.SetupTx(r.System()))
		if pr != rr {
			return fmt.Errorf("stack-a: System %d replica at revision %d, primary at %d", i, rr, pr)
		}
	}
	pit, rit := st.db.Scan(nil, nil, 0), st.follower.DB().Scan(nil, nil, 0)
	for n := 0; ; n++ {
		pn, rn := pit.Next(), rit.Next()
		if pn != rn {
			return fmt.Errorf("stack-a: replica scan diverges in length at entry %d", n)
		}
		if !pn {
			break
		}
		if !bytes.Equal(pit.Key(), rit.Key()) || !bytes.Equal(pit.Value(), rit.Value()) {
			return fmt.Errorf("stack-a: replica differs at key %q", pit.Key())
		}
	}
	if err := errors.Join(pit.Err(), rit.Err()); err != nil {
		return err
	}
	return st.replica.Validate()
}

type stackACaller struct {
	st           *stackAStack
	id, seq      uint32
	cl           *client.Client
	err          error
	rng          *rand.Rand
	key, key2    []byte
	val, scratch []byte
}

func (c *stackACaller) next() op {
	if c.rng.Intn(100) < 10 {
		a, b := c.st.bySys[0], c.st.bySys[1]
		if c.rng.Intn(2) == 0 {
			a, b = b, a
		}
		return op{kind: netTransfer, rec: a[c.rng.Intn(len(a))], rec2: b[c.rng.Intn(len(b))], n: c.rng.Intn(10)}
	}
	o := op{kind: netGet, rec: c.st.zipf.record(c.rng)}
	if c.rng.Intn(100) < 50 {
		c.seq++
		o.kind, o.n = netPut, int(c.id<<24|c.seq)
	}
	return o
}

func (c *stackACaller) do(o op) error {
	if c.err != nil {
		return c.err
	}
	switch o.kind {
	case netTransfer:
		c.key = appendKey(c.key[:0], "acct", o.rec)
		c.key2 = appendKey(c.key2[:0], "acct", o.rec2)
		amt := uint64(o.n)
		return c.cl.Update(func(tx kv.Txn) error {
			fv, err := tx.Get(c.key)
			if err != nil {
				return err
			}
			tv, err := tx.Get(c.key2)
			if err != nil {
				return err
			}
			f, t := binary.LittleEndian.Uint64(fv), binary.LittleEndian.Uint64(tv)
			if f < amt {
				return nil // insufficient funds: a read-only commit
			}
			binary.LittleEndian.PutUint64(fv, f-amt)
			binary.LittleEndian.PutUint64(tv, t+amt)
			if err := tx.Put(c.key, fv); err != nil {
				return err
			}
			return tx.Put(c.key2, tv)
		})
	case netPut:
		c.key = appendKey(c.key[:0], "user", o.rec)
		fillValue(c.val, c.st.e.seed, uint32(o.rec), uint32(o.n))
		return c.cl.Put(c.key, c.val)
	}
	c.key = appendKey(c.key[:0], "user", o.rec)
	v, err := c.cl.Get(c.key)
	if err != nil {
		return err
	}
	// Sixteen callers race on the hot records, so which version a Get sees
	// is not fixed; that it is an intact version of this record is.
	if _, ok := checkValue(v, c.scratch, c.st.e.seed, uint32(o.rec)); !ok {
		return fmt.Errorf("get %s: torn bytes", c.key)
	}
	return nil
}
