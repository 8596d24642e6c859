package harness

import (
	"fmt"
	"maps"

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

// The one backend every KV run drives: a served DB — a kv.Local over a
// sharded store on one System, or the share-nothing multi-System
// kv.ClusterDB — with WAL-shipping replicas or the network front end when
// the spec asks. Only construction differs per DB, the setup put included;
// quiescent peeks, key placement and the result's accounting read the
// served DB's durable layout, so they are written once.

// servedDB is what a backend serves: *kv.Local or *kv.ClusterDB.
type servedDB interface {
	kv.Served
	Layout() []kv.Stream
	Flight() *obs.Flight
}

type backend struct {
	served servedDB
	db     kv.DB // what the workers drive: served, or cl in front of it
	clock  *kv.ManualClock
	// validate checks the served stores' structure after the run (on a
	// cluster also that no intent is left pending). setupPut writes one
	// record into its store directly; nil on a logged DB (see load).
	validate func() error
	setupPut func(key, value []byte) error

	// WAL-shipping replicas (spec.Replicas > 0): each follower is a full
	// System tailing the primary's log; reads route to them round-robin.
	group     *repl.Group
	followers []*repl.Follower
	replicas  []rhtm.Engine

	// The network front end (spec.Net): srv serves served and cl is db;
	// reg holds the server's instruments (server.*). traced is
	// spec.TraceSample > 0 on a net run.
	srv    *server.Server
	reg    *obs.Registry
	cl     *client.Client
	traced bool
}

// systemWords sizes the heap of a System holding one sharded store: each
// shard's arena, event ring and headers, plus the words a store needs
// beyond them, with room to spare.
func systemWords(shards, arenaWords int) int {
	return shards*(arenaWords+store.DefaultLogWords+64) + 8192
}

// openBackend builds the backend spec selects. A backend that fails part
// way is closed before the error returns.
func openBackend(spec sizing, engineName string, cfg RunConfig) (*backend, error) {
	b := &backend{clock: kv.NewManualClock()}
	opts := []kv.Option{kv.WithClock(b.clock)}
	// On a net run the client owns the sampling decision (the trace rides
	// the wire frame); DB-level sampling would double-trace every N-th op.
	if spec.TraceSample > 0 && !spec.Net {
		opts = append(opts, kv.WithTraceSampling(spec.TraceSample))
	}
	if spec.WAL {
		opts = append(opts, kv.WithSyncEvery(spec.SyncEvery))
	}
	var err error
	if spec.Backend == BackendCluster {
		err = b.openCluster(spec, engineName, cfg, opts)
	} else {
		err = b.openLocal(spec, engineName, cfg, opts)
	}
	b.db = b.served
	if err == nil && spec.Net {
		err = b.serve(spec, engineName)
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// openLocal serves a kv.Local over a sharded store, logged to an in-memory
// device under spec.WAL, and grows its replication group by spec.Replicas
// replicas of the same geometry.
func (b *backend) openLocal(spec sizing, engineName string, cfg RunConfig, opts []kv.Option) error {
	perRecord := store.RecordFootprintWords(len(ycsbKey(0)), spec.ValueBytes)
	recordsPerShard := (spec.Records + spec.Shards - 1) / spec.Shards
	insertSlack := (spec.insertBudget/spec.Shards + 1) * perRecord * 2
	arenaWords := recordsPerShard*perRecord*2 + insertSlack + spec.leaseWords/spec.Shards + 4096
	newStore := func() (rhtm.Engine, *store.Sharded, error) {
		s, err := rhtm.NewSystem(rhtm.DefaultConfig(systemWords(spec.Shards, arenaWords)))
		if err != nil {
			return nil, nil, err
		}
		eng, err := Build(s, engineName, cfg.InjectPct)
		if err != nil {
			return nil, nil, err
		}
		return eng, store.NewSharded(s, spec.Shards, store.Options{ArenaWords: arenaWords}), nil
	}
	eng, sh, err := newStore()
	if err != nil {
		return err
	}
	b.validate = sh.Validate
	if !spec.WAL {
		b.served = kv.NewLocal(eng, sh, opts...)
		b.setupPut = func(key, value []byte) error {
			return sh.Put(containers.SetupTx(sh.System()), key, value)
		}
		return nil
	}
	dev, err := wal.NewMemStorage().Device("wal")
	if err != nil {
		return err
	}
	db, err := kv.OpenLocal(eng, sh, dev, opts...)
	if err != nil {
		return err
	}
	b.served = db
	if spec.Replicas == 0 {
		return nil
	}
	if b.group, err = repl.NewLocalGroup(db, dev); err != nil {
		return err
	}
	if f := db.Flight(); f != nil {
		// Sampled traces get their replica_apply stage annotated as the
		// followers replay each commit revision.
		b.group.SetFlight(f)
	}
	for i := 0; i < spec.Replicas; i++ {
		reng, rsh, err := newStore()
		if err != nil {
			return err
		}
		f, err := b.group.AddLocalReplica(reng, rsh)
		if err != nil {
			return err
		}
		b.followers = append(b.followers, f)
		b.replicas = append(b.replicas, reng)
	}
	return nil
}

// openCluster serves a kv.ClusterDB over spec.Systems Systems, logged to
// in-memory devices under spec.WAL.
func (b *backend) openCluster(spec sizing, engineName string, cfg RunConfig, opts []kv.Option) error {
	keyBytes := len(ycsbKey(0))
	recordsPerSys := (spec.Records + spec.Systems - 1) / spec.Systems
	perRecord := store.RecordFootprintWords(keyBytes, spec.ValueBytes)
	// In-flight intents: every client can hold CrossKeys (or a batch) of
	// them, plus the same again mid-apply; round up generously — intent
	// blocks recycle.
	perIntentKeys := max(spec.CrossKeys, spec.BatchSize)
	intentSlack := (cfg.Threads*perIntentKeys*2 + 64) *
		store.IntentFootprintWords(keyBytes, spec.ValueBytes)
	insertSlack := (spec.insertBudget/spec.Systems + 1) * perRecord * 2
	arenaWords := recordsPerSys*perRecord*2 + intentSlack + insertSlack +
		spec.leaseWords/spec.Systems + 4096
	c, err := cluster.New(cluster.Config{
		Systems:    spec.Systems,
		ArenaWords: arenaWords,
		NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
			return Build(s, engineName, cfg.InjectPct)
		},
	})
	if err != nil {
		return err
	}
	b.validate = c.Validate
	if !spec.WAL {
		b.served, b.setupPut = kv.NewCluster(c, opts...), c.Load
		return nil
	}
	db, err := kv.OpenCluster(c, wal.NewMemStorage(), opts...)
	if err != nil {
		return err
	}
	b.served = db
	return nil
}

// serve puts the network front end before the served DB: a real server on
// loopback TCP and a pooled client the workers drive, so a run measures the
// whole wire path — framing, pipelining, the cross-connection batcher —
// under the same load generator (RunKV caps the requests in flight at the
// pool size when the spec is not pipelined). Setup loads, quiescent peeks
// and validation still go straight to the served DB: the network is under
// test, not the verification.
func (b *backend) serve(spec sizing, engineName string) error {
	b.reg = obs.NewRegistry()
	b.srv = server.New(b.served, server.WithMetrics(b.reg), server.WithEngineName(engineName))
	addr, err := b.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	clOpts := []client.Option{client.WithConns(spec.Conns)}
	if b.traced = spec.TraceSample > 0; b.traced {
		clOpts = append(clOpts, client.WithTraceSampling(spec.TraceSample))
	}
	if b.cl, err = client.Dial(addr.String(), clOpts...); err != nil {
		return err
	}
	b.db = b.cl
	return nil
}

// close tears the backend down: the client before the server, so the
// server sees orderly disconnects instead of racing its own drain, and the
// replication group last.
func (b *backend) close() {
	if b.cl != nil {
		b.cl.Close()
	}
	if b.srv != nil {
		b.srv.Close()
	}
	if b.group != nil {
		b.group.Close()
	}
}

// load populates one record on the setup path (no engine traffic). Once a
// WAL is attached every write must ride the logging paths — a setup-path
// write would leave a revision hole the log's sequence gate waits on
// forever — so a logged DB loads through Put.
func (b *backend) load(key, value []byte) error {
	if b.setupPut == nil {
		return b.served.Put(key, value)
	}
	return b.setupPut(key, value)
}

// peek reads a committed value while quiescent (verification), from the
// store of the data stream the key's domain logs to.
func (b *backend) peek(key []byte) ([]byte, bool) {
	st := b.served.Layout()[b.served.Domain(key)].Store
	return st.Get(containers.SetupTx(st.System()), key)
}

// finish fills the engine, access and counter fields of res from the
// quiescent backend. Stats and Accesses total the served layout's
// data-stream engines, and Accesses also the replicas': ops/kaccess charges
// the whole fleet's work. The data streams' engines run in parallel, and
// replicas replay and serve reads beside the primary, so the busiest
// data-stream engine is the run's critical path. CriticalAccesses is
// reported when the layout has more than one stream (a cluster's Systems
// and coordinator) or replicas: a Local without replicas is one engine,
// whose critical path is the whole run.
func (b *backend) finish(res *Result) error {
	lay := b.served.Layout()
	res.Engine = lay[0].Engine.Name()
	var critical uint64
	for _, s := range lay {
		if s.Engine == nil {
			continue // the coordinator decision log
		}
		st := s.Engine.Snapshot()
		res.Stats.Add(st)
		a := accesses(st)
		res.Accesses += a
		critical = max(critical, a)
	}
	res.Counters = b.served.Metrics().Flatten()
	// Drain the followers so the repl.* gauges are final (lag 0): a replica
	// that cannot converge fails the run.
	for _, f := range b.followers {
		if err := f.WaitIdle(); err != nil {
			return fmt.Errorf("harness: replica drain: %w", err)
		}
	}
	for _, eng := range b.replicas {
		res.Accesses += accesses(eng.Snapshot())
	}
	if len(lay) > 1 || len(b.replicas) > 0 {
		res.CriticalAccesses = critical
	}
	if b.group != nil {
		maps.Copy(res.Counters, b.group.Metrics().Flatten())
	}
	if b.reg != nil {
		// The server's registry is separate from the DB's, so its counters
		// merge in under their own server.* names without collisions.
		maps.Copy(res.Counters, b.reg.Snapshot().Flatten())
	}
	// After the drain, so replica_apply stage stats cover every commit.
	traceCounters(b.served.Flight(), "trace.", res.Counters)
	if b.traced {
		// The server's flight carries the typed handling stages; the
		// client's carries the other half of each trace — the net stage.
		traceCounters(b.srv.Flight(), "trace.", res.Counters)
		traceCounters(b.cl.Flight(), "client.trace.", res.Counters)
	}
	return nil
}

// traceCounters folds a flight recorder's dump into a run's counter map:
// per trace kind the sampled count and error tally, per typed stage the
// observation count and latency quantiles. A nil flight (tracing
// disabled) contributes nothing, so untraced runs' JSONL rows are
// byte-for-byte what they were before tracing existed.
func traceCounters(f *obs.Flight, prefix string, out map[string]int64) {
	if f == nil || out == nil {
		return
	}
	for kind, kd := range f.Dump().Kinds {
		out[prefix+kind+".count"] = int64(kd.Count)
		out[prefix+kind+".errors"] = int64(kd.Errors)
		for stage, st := range kd.Stages {
			base := prefix + kind + "." + stage
			out[base+".count"] = int64(st.Count)
			out[base+".p50_ns"] = int64(st.P50NS)
			out[base+".p99_ns"] = int64(st.P99NS)
		}
	}
}
