package harness

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// mixCounters pins the harness.* counters each mix owns: the names key the
// committed JSON trajectory and the docs, so a mix that gains, loses or
// renames one must say so here. A new row of the mix table needs an entry.
var mixCounters = map[string][]string{
	"a":       {},
	"b":       {},
	"c":       {},
	"d":       {"inserts", "insert_fallbacks"},
	"e":       {"inserts", "insert_fallbacks", "scans", "scanned"},
	"f":       {"updates", "fsum"},
	"bank":    {},
	"session": {"hits", "misses", "logins", "expired", "watched_deletes"},
	"lock":    {"acquires", "contended", "releases", "crashes", "expired", "watched_deletes"},
	"eidx":    {"inserts", "insert_fallbacks", "scans", "scanned"},
	"query":   {"point_queries", "range_queries", "order_queries", "upserts", "scanned"},
}

// TestMixTable walks every row of the mix table over the three rig shapes
// — in-process store, 2-System cluster, closed-loop network — at tiny
// scale: the run must pass the mix's own audit and the backend's
// validation, execute exactly the budgeted operations, report exactly
// the counters the mix owns, both in Result.Counters and in the digest
// PrintThroughputSeries renders from them, and account its accesses by
// the backend's rule: a lone Local engine has no separate critical path,
// while a cluster's busiest System carries only part of the run's work.
func TestMixTable(t *testing.T) {
	local := func(t *testing.T, r Result) {
		if r.Accesses == 0 || r.CriticalAccesses != 0 {
			t.Errorf("accesses %d, critical %d; want > 0 and 0", r.Accesses, r.CriticalAccesses)
		}
	}
	rigs := []struct {
		name  string
		set   func(*KVSpec)
		check func(*testing.T, Result)
	}{
		{"store", func(sp *KVSpec) { sp.Shards = 2 }, local},
		{"cluster2", func(sp *KVSpec) { sp.Systems = 2 }, func(t *testing.T, r Result) {
			if r.CriticalAccesses == 0 || r.CriticalAccesses >= r.Accesses {
				t.Errorf("critical %d of %d accesses; want the busier System's share", r.CriticalAccesses, r.Accesses)
			}
		}},
		// Two workers over one connection: the closed-loop slot is contended.
		{"net-closed", func(sp *KVSpec) { sp.Shards, sp.Net, sp.Conns = 2, true, 1 }, func(t *testing.T, r Result) {
			local(t, r)
			if r.Counters["server.bytes_in"] == 0 {
				t.Errorf("server.* counters missing: %s", digest(r.Counters))
			}
		}},
	}
	for _, m := range mixTable {
		owned, ok := mixCounters[m.name]
		if !ok {
			t.Errorf("mix %q has no entry in mixCounters", m.name)
			continue
		}
		for _, rig := range rigs {
			t.Run(m.name+"/"+rig.name, func(t *testing.T) {
				spec := KVSpec{Mix: m.name, Records: 64, ValueBytes: 16, ScanMax: 4,
					IdxSel: 4, TTL: 4, PumpEvery: 8}
				rig.set(&spec)
				r, err := RunKV(spec, EngTL2, RunConfig{Threads: 2, OpsPerThread: 25, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if r.Ops != 50 {
					t.Errorf("Ops = %d, want 50", r.Ops)
				}
				var sb strings.Builder
				PrintThroughputSeries(&sb, spec.Title(), []Result{r})
				var want, got []string
				for _, c := range owned {
					name := "harness." + c
					want = append(want, name)
					if !strings.Contains(sb.String(), " "+name+"=") {
						t.Errorf("digest misses %s:\n%s", name, sb.String())
					}
				}
				for name := range r.Counters {
					if strings.HasPrefix(name, "harness.") {
						got = append(got, name)
					}
				}
				sort.Strings(want)
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("harness.* counters = %v, want %v", got, want)
				}
				rig.check(t, r)
			})
		}
	}
}

// TestKVSpecNames pins KVSpec.Name() for every mix under every suffix the
// spec can add: the names key the committed BENCH_smoke.json trajectory, and
// benchdiff reports a renamed row as a vanished one (-100%). The golden file
// was generated by the Name() that recorded the trajectory.
func TestKVSpecNames(t *testing.T) {
	variants := []struct {
		name string
		spec KVSpec
	}{
		{"plain", KVSpec{}},
		{"uniform", KVSpec{Dist: DistUniform}},
		{"cluster", KVSpec{Systems: 3, CrossPct: 20}},
		{"cluster1", KVSpec{Backend: BackendCluster}},
		{"tables", KVSpec{Tables: 4, IdxSel: 16}},
		{"batch", KVSpec{BatchSize: 16}},
		{"wal", KVSpec{WAL: true}},
		{"wal-sync", KVSpec{WAL: true, SyncEvery: 8}},
		{"net", KVSpec{Net: true}},
		{"net-pipe", KVSpec{Net: true, Conns: 2, Pipeline: true}},
		{"repl", KVSpec{WAL: true, Replicas: 2}},
		{"repl-stale", KVSpec{WAL: true, Replicas: 2, Staleness: 64}},
		{"trace", KVSpec{TraceSample: 4}},
		{"all", KVSpec{Systems: 2, CrossPct: 5, BatchSize: 8, WAL: true, SyncEvery: 4,
			Net: true, Conns: 16, Pipeline: true, Replicas: 1, Staleness: 2, TraceSample: 3}},
	}
	var sb strings.Builder
	for _, m := range mixTable {
		for _, v := range variants {
			spec := v.spec
			spec.Mix = m.name
			fmt.Fprintf(&sb, "%s %s => %s\n", m.name, v.name, spec.Name())
		}
	}
	golden, err := os.ReadFile("testdata/kvspec_names.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(sb.String(), "\n"), strings.Split(string(golden), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d: got %q, golden %q", i+1, got[i], want[i])
		}
	}
}
