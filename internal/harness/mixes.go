package harness

import (
	"strings"

	"rhtm/store"
)

// The mix table: one row per KV workload mix, carrying everything the
// runner, the spec's naming/defaulting/validation, the arena sizing and the
// rhbench CLI decide per mix. This file is the only place a mix is named;
// a new mix is one row here plus its mixRun implementation.

// mixRun is one run's state of one mix. RunKV also calls two optional
// methods: drain(w), after a worker's last step, to flush what its steps
// left buffered; and quiesce(), to stop the mix's background work before
// the backend is snapshotted.
type mixRun interface {
	// step runs one logical operation on behalf of worker w.
	step(w *kvWorker) error
	// counters writes the mix's observations into out as harness.* names.
	counters(out map[string]int64)
	// audit checks the mix's invariant against the quiescent backend.
	audit() error
}

// mixDesc is one row of the mix table.
type mixDesc struct {
	// name is the KVSpec.Mix selector; stem the store-backend row-name
	// stem, also the mix's rhbench experiment id; title and blurb describe
	// it in series headings.
	name, stem, title, blurb string
	// readPct is the share of steps that run the mix's read operation, the
	// rest running its write; zero for mixes with their own split.
	readPct int
	// valueBytes, when set, forces the value size; minValueBytes rejects
	// smaller ones.
	valueBytes, minValueBytes int
	// batchable: the single-key operations can ride kv.DB.Batch. rmw: the
	// writes increment the record's leading counter in place.
	batchable, rmw bool
	// inserts, leases and table select the arena headroom (see sizing).
	inserts, leases, table bool
	// open populates the backend the way the mix needs it and returns the
	// mix's per-run state.
	open func(run *kvRun) (mixRun, error)
}

var mixTable = []*mixDesc{
	{name: "a", stem: "ycsb-a", title: "YCSB-A", blurb: "50% reads / 50% updates",
		readPct: 50, batchable: true, open: openYCSB},
	{name: "b", stem: "ycsb-b", title: "YCSB-B", blurb: "95% reads / 5% updates",
		readPct: 95, batchable: true, open: openYCSB},
	{name: "c", stem: "ycsb-c", title: "YCSB-C", blurb: "read-only",
		readPct: 100, batchable: true, open: openYCSB},
	{name: "d", stem: "ycsb-d", title: "YCSB-D", blurb: "95% latest-skewed reads / 5% inserts",
		readPct: 95, inserts: true, open: openLatest},
	{name: "e", stem: "ycsb-e", title: "YCSB-E", blurb: "95% short ordered scans / 5% inserts",
		readPct: 95, inserts: true, open: openScans},
	{name: "f", stem: "ycsb-f", title: "YCSB-F", blurb: "50% reads / 50% read-modify-writes",
		readPct: 50, rmw: true, minValueBytes: 8, open: openYCSB},
	{name: "bank", stem: "bank", title: "Bank", blurb: "two-account transfers, conserved total audited",
		valueBytes: 8, open: openBank},
	{name: "session", stem: "session-cache", title: "Session cache",
		blurb:  "gets, a miss is a login under a lease, virtual-time expiry churn",
		leases: true, open: openSessions},
	{name: "lock", stem: "lock-service", title: "Lock service",
		blurb:      "create-only CAS acquires under a lease, 20% crash-expiry reclaims, mutual exclusion audited",
		valueBytes: 8, leases: true, open: openLocks},
	{name: "eidx", stem: "ycsb-e-index", title: "YCSB-E from the secondary index",
		blurb:   "95% planner-bounded bucket scans / 5% inserts",
		readPct: 95, inserts: true, table: true, open: openIndexScans},
	{name: "query", stem: "table-query", title: "Table query mix",
		blurb: "45% point / 25% range / 20% covering order-limit / 10% upserts",
		table: true, open: openQueries},
}

// lookupMix finds the row KVSpec.Mix selects.
func lookupMix(name string) (*mixDesc, bool) {
	for _, m := range mixTable {
		if m.name == name {
			return m, true
		}
	}
	return nil, false
}

// mixNames lists every row's selector, for error texts.
func mixNames() string {
	var names []string
	for _, m := range mixTable {
		names = append(names, m.name)
	}
	return strings.Join(names, ", ")
}

// MixStems lists every mix's row-name stem in table order — the KV
// experiment ids of rhbench.
func MixStems() []string {
	stems := make([]string, len(mixTable))
	for i, m := range mixTable {
		stems[i] = m.stem
	}
	return stems
}

// MixForStem maps a row-name stem ("ycsb-a", "lock-service") back to the
// KVSpec.Mix value that produces it.
func MixForStem(stem string) (string, bool) {
	for _, m := range mixTable {
		if m.stem == stem {
			return m.name, true
		}
	}
	return "", false
}

// sizing is what a backend sizes its arenas from: the spec, plus how many
// records the run may insert past the loaded key space and the arena words
// its lease records need.
type sizing struct {
	KVSpec
	insertBudget, leaseWords int
}

func (m *mixDesc) sizing(spec KVSpec, cfg RunConfig) sizing {
	sz := sizing{KVSpec: spec}
	if m.table {
		// A table row costs more than a raw record — prefixed row and index
		// keys, codec overhead, statistics shards — and one row transaction
		// holds several write intents at once on the cluster.
		sz.Records = spec.Records*3 + 64
		sz.ValueBytes += 64
		if sz.CrossKeys < 8 {
			sz.CrossKeys = 8
		}
	}
	if m.inserts {
		// Count-based runs are exact to the op budget; time-based runs get
		// headroom for one extra record population — past it, inserts fall
		// back to overwrites (harness.insert_fallbacks) rather than failing.
		sz.insertBudget = sz.Records
		if cfg.OpsPerThread > 0 {
			sz.insertBudget = cfg.Threads*cfg.OpsPerThread/10 + 64
		}
	}
	if m.leases {
		// One lease record (and its bookkeeping) per live session/lock, plus
		// the lock mix's critical-section counters.
		vb := sz.ValueBytes
		if vb < 8 {
			vb = 8
		}
		per := store.RecordFootprintWords(16, 64) + // lease record
			store.RecordFootprintWords(16, vb) + // data / counter key
			64
		sz.leaseWords = sz.Records*per*2 + 4096
	}
	return sz
}
