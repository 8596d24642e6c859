package main

import (
	"errors"
	"math/rand"
	"time"

	"rhtm"
	"rhtm/containers"
)

// rbtree-20: the paper's §3.1 constant red-black tree, straight onto
// rhtm.Thread.Atomic and containers. Nothing above the engine runs.

const (
	rbLookup = iota
	rbUpdate
)

var rbtree20 = workload{
	name: "rbtree-20",
	why: "paper 3.1 constant red-black tree, 100K nodes, 20% update, 10% injected HTM aborts: only engine and containers " +
		"work, so kv/server/table changes predict no movement",
	kinds:   []string{"containers.lookup", "containers.update"},
	callers: 1,
	inproc:  true,
	counted: 100_000,
	rate:    300_000,
	segment: 100 * time.Millisecond,
	build:   buildRBTree,
}

// mixedEngine is the engine of every workload: RH1 Mixed 100, here with
// the paper's emulation knob forcing a share of hardware commits to abort.
func mixedEngine(s *rhtm.System, injectPct int, tr *tracer) rhtm.Engine {
	o := rhtm.DefaultRH1Options()
	o.InjectAbortPercent = injectPct
	return engineDecor{Engine: rhtm.NewRH1(s, o), tr: tr}
}

type rbStack struct {
	e     *env
	nodes int
	sys   *rhtm.System
	eng   rhtm.Engine
	tree  *containers.RBTree
}

func buildRBTree(e *env) (stack, error) {
	nodes := e.scaled(100_000)
	s, err := rhtm.NewSystem(rhtm.DefaultConfig(nodes*containers.RBNodeWords*5/4 + 4096))
	if err != nil {
		return nil, err
	}
	st := &rbStack{e: e, nodes: nodes, sys: s, eng: mixedEngine(s, 10, e.tr), tree: containers.NewRBTree(s)}
	keys := make([]uint64, nodes)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(nodes, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	st.tree.Populate(keys)
	return st, nil
}

func (st *rbStack) caller(i int, _ bool) caller {
	return &rbCaller{st: st, th: st.eng.NewThread(), rng: callerRNG(st.e.seed, i),
		climb: rand.New(rand.NewSource(st.e.seed ^ int64(i+1)<<32))}
}

func (st *rbStack) ledger() ledger {
	l := ledger{}
	engineLedger(l, st.eng.Snapshot())
	return l
}

func (st *rbStack) probe() (uint64, uint64) { return accesses(st.eng.Snapshot()), 0 }
func (st *rbStack) settle() error           { return nil }
func (st *rbStack) check() error            { return st.tree.Validate() }
func (st *rbStack) close()                  {}

type rbCaller struct {
	st  *rbStack
	th  rhtm.Thread
	rng *rand.Rand
	// climb decides inside the transaction body how far an update walks
	// toward the root; a re-executed body draws again, which the engine's
	// own per-thread abort stream makes repeatable.
	climb *rand.Rand
}

func (c *rbCaller) next() op {
	o := op{kind: rbLookup, rec: c.rng.Intn(c.st.nodes) + 1}
	if c.rng.Intn(100) < 20 {
		o.kind, o.n = rbUpdate, int(c.rng.Int63())
	}
	return o
}

var errRBMiss = errors.New("rbtree: key of the populated range not found")

func (c *rbCaller) do(o op) error {
	var found bool
	var err error
	if o.kind == rbLookup {
		err = c.th.Atomic(func(tx rhtm.Tx) error {
			found = c.st.tree.ConstLookup(tx, uint64(o.rec))
			return nil
		})
	} else {
		err = c.th.Atomic(func(tx rhtm.Tx) error {
			found = c.st.tree.ConstUpdate(tx, uint64(o.rec), uint64(o.n), c.climb)
			return nil
		})
	}
	if err == nil && !found {
		err = errRBMiss
	}
	return err
}

// engineLedger files an engine's cumulative statistics under engine.*.
func engineLedger(l ledger, s rhtm.Stats) {
	l["engine.fast"] += int64(s.FastCommits)
	l["engine.commits"] += int64(s.Commits())
	l["engine.aborts"] += int64(s.Aborts())
	l["engine.rh2"] += int64(s.RH2Fallbacks)
	l["engine.acc"] += int64(accesses(s))
	for i := range s.FastAbortsByReason {
		if rhtm.AbortReason(i).String() == "capacity" {
			l["engine.capacity"] += int64(s.FastAbortsByReason[i])
		}
	}
}

// accesses is the simulated clock: every shared-memory access an engine
// made, data and metadata, aborted attempts included.
func accesses(s rhtm.Stats) uint64 {
	return s.Reads + s.Writes + s.MetadataReads + s.MetadataWrites
}
