// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark function per artifact; see EXPERIMENTS.md for the mapping
// and cmd/rhbench for the full-scale driver with series output).
//
// Workload sizes here are reduced so `go test -bench=.` completes quickly;
// sub-benchmarks are keyed by engine (and parameters) so benchstat can
// compare series. The metric that carries the paper's claims is
// accesses/op (simulated shared accesses per committed operation — lower is
// better, reported via b.ReportMetric), since host ns/op measures the
// simulator rather than the simulated machine.
package rhtm_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rhtm"
	"rhtm/containers"
	"rhtm/internal/harness"
	"rhtm/kv"
	"rhtm/store"
	"rhtm/wal"
)

// benchPoint runs b.N operations of workload w on one engine and reports
// both host time and the architectural accesses/op metric.
func benchPoint(b *testing.B, w harness.Workload, engine string, threads int) {
	b.Helper()
	cfg := harness.RunConfig{
		Threads:      threads,
		OpsPerThread: (b.N + threads - 1) / threads,
		Seed:         1,
	}
	b.ResetTimer()
	r, err := harness.Run(w, engine, cfg)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if r.Ops > 0 {
		b.ReportMetric(float64(r.Accesses)/float64(r.Ops), "accesses/op")
		b.ReportMetric(r.Stats.AbortRatio(), "aborts/commit")
	}
}

// --- Figure 1: Constant RB-Tree, 20% writes, instrumentation cost ---

func BenchmarkFig1RBTree20(b *testing.B) {
	engines := []string{harness.EngHTM, harness.EngStdHy, harness.EngTL2, harness.EngRH1Fast}
	for _, eng := range engines {
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/t=%d", eng, threads), func(b *testing.B) {
				benchPoint(b, harness.RBTreeWorkload(4096, 20), eng, threads)
			})
		}
	}
}

// --- Figure 2 top: RB-Tree with the RH1 Mixed configurations ---

func BenchmarkFig2aRBTree20Mixed(b *testing.B) {
	engines := []string{harness.EngRH1Fast, harness.EngRH1Mix1, harness.EngRH1Mix2, harness.EngStdHy}
	for _, eng := range engines {
		b.Run(eng, func(b *testing.B) {
			benchPoint(b, harness.RBTreeWorkload(4096, 20), eng, 4)
		})
	}
}

func BenchmarkFig2bRBTree80Mixed(b *testing.B) {
	engines := []string{harness.EngRH1Fast, harness.EngRH1Mix1, harness.EngRH1Mix2, harness.EngStdHy}
	for _, eng := range engines {
		b.Run(eng, func(b *testing.B) {
			benchPoint(b, harness.RBTreeWorkload(4096, 80), eng, 4)
		})
	}
}

// --- Figure 2 middle: single-thread speedup rows ---

func BenchmarkFig2cSingleThread(b *testing.B) {
	engines := []string{harness.EngRH1Slow, harness.EngTL2, harness.EngStdHy,
		harness.EngRH1Fast, harness.EngHTM}
	for _, eng := range engines {
		b.Run(eng, func(b *testing.B) {
			benchPoint(b, harness.RBTreeWorkload(4096, 20), eng, 1)
		})
	}
}

// --- Figure 2 bottom tables: single-thread breakdown (20% and 80%) ---

func BenchmarkTab1Breakdown20(b *testing.B) {
	benchBreakdown(b, 20)
}

func BenchmarkTab2Breakdown80(b *testing.B) {
	benchBreakdown(b, 80)
}

// benchBreakdown runs the breakdown-instrumented single-thread configuration
// and reports the phase percentages as benchmark metrics.
func benchBreakdown(b *testing.B, writePct int) {
	engines := []string{harness.EngRH1Slow, harness.EngTL2, harness.EngStdHy,
		harness.EngRH1Fast, harness.EngHTM}
	for _, eng := range engines {
		b.Run(eng, func(b *testing.B) {
			cfg := harness.RunConfig{
				Threads:      1,
				OpsPerThread: b.N,
				Seed:         1,
				Breakdown:    true,
			}
			b.ResetTimer()
			r, err := harness.Run(harness.RBTreeWorkload(2048, writePct), eng, cfg)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if bd := r.Breakdown; bd != nil {
				b.ReportMetric(bd.ReadPct, "read%")
				b.ReportMetric(bd.WritePct, "write%")
				b.ReportMetric(bd.CommitPct, "commit%")
			}
		})
	}
}

// --- Figure 3 left: Constant Hash Table, 20% writes ---

func BenchmarkFig3aHashTable20(b *testing.B) {
	engines := []string{harness.EngHTM, harness.EngStdHy, harness.EngTL2, harness.EngRH1Mix2}
	for _, eng := range engines {
		b.Run(eng, func(b *testing.B) {
			benchPoint(b, harness.HashTableWorkload(2048, 20), eng, 4)
		})
	}
}

// --- Figure 3 middle: Constant Sorted List, 5% writes ---

func BenchmarkFig3bSortedList5(b *testing.B) {
	engines := []string{harness.EngHTM, harness.EngStdHy, harness.EngTL2,
		harness.EngRH1Fast, harness.EngRH1Mix2}
	for _, eng := range engines {
		b.Run(eng, func(b *testing.B) {
			benchPoint(b, harness.SortedListWorkload(256, 5), eng, 4)
		})
	}
}

// --- Figure 3 right: Random Array speedup matrix ---

func BenchmarkFig3cRandomArray(b *testing.B) {
	for _, txLen := range []int{400, 100, 40} {
		for _, writePct := range []int{0, 20, 50, 90} {
			for _, eng := range []string{harness.EngRH1Fast, harness.EngStdHy} {
				b.Run(fmt.Sprintf("len=%d/w=%d/%s", txLen, writePct, eng), func(b *testing.B) {
					benchPoint(b, harness.RandomArrayWorkload(1<<14, txLen, writePct), eng, 4)
				})
			}
		}
	}
}

// --- Extension ext1: GV6 vs GV5 clock ---

func BenchmarkExtClockGV6vsGV5(b *testing.B) {
	for _, gv5 := range []bool{false, true} {
		name := "GV6"
		if gv5 {
			name = "GV5"
		}
		b.Run(name, func(b *testing.B) {
			cfg := harness.RunConfig{Threads: 4, OpsPerThread: (b.N + 3) / 4, Seed: 1, GV5: gv5}
			b.ResetTimer()
			r, err := harness.Run(harness.RBTreeWorkload(2048, 20), harness.EngRH1Mix2, cfg)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.Stats.AbortRatio(), "aborts/commit")
		})
	}
}

// --- Extension ext2: slow-path capacity extension ---

func BenchmarkExtCapacity(b *testing.B) {
	for _, txLen := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("len=%d", txLen), func(b *testing.B) {
			lim := 32
			cfg := harness.RunConfig{Threads: 1, OpsPerThread: b.N, Seed: 1}
			hcfg := harness.CapacityHTMConfig(lim)
			cfg.HTMOverride = &hcfg
			b.ResetTimer()
			r, err := harness.Run(harness.RandomArrayWorkload(1<<14, txLen, 10), harness.EngRH1Mix2, cfg)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if c := r.Stats.Commits(); c > 0 {
				b.ReportMetric(float64(r.Stats.FastCommits)/float64(c), "fast-share")
			}
		})
	}
}

// --- Extension ext3: hybrid designs compared ---

func BenchmarkExtHybrids(b *testing.B) {
	engines := []string{harness.EngRH1Mix2, harness.EngStdHy, harness.EngNoRec, harness.EngPhased}
	for _, eng := range engines {
		b.Run(eng, func(b *testing.B) {
			benchPoint(b, harness.RBTreeWorkload(2048, 20), eng, 4)
		})
	}
}

// --- Extension: YCSB-style workloads on the unified kv.DB interface ---

// benchKV runs b.N operations of one KVSpec through RunKV and reports the
// architectural metrics (see benchPoint).
func benchKV(b *testing.B, spec harness.KVSpec, engine string, threads int) {
	b.Helper()
	cfg := harness.RunConfig{
		Threads:      threads,
		OpsPerThread: (b.N + threads - 1) / threads,
		Seed:         1,
	}
	b.ResetTimer()
	r, err := harness.RunKV(spec, engine, cfg)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if r.Ops > 0 {
		b.ReportMetric(float64(r.Accesses)/float64(r.Ops), "accesses/op")
		b.ReportMetric(r.Stats.AbortRatio(), "aborts/commit")
		if r.OpsPerKInterval > 0 {
			b.ReportMetric(r.OpsPerKInterval, "ops/kinterval")
		}
	}
}

func BenchmarkYCSB(b *testing.B) {
	engines := []string{harness.EngRH1Mix2, harness.EngStdHy, harness.EngTL2}
	for _, mix := range []string{"a", "b", "c", "d", "e", "f"} {
		for _, dist := range []string{harness.DistUniform, harness.DistZipfian} {
			for _, eng := range engines {
				b.Run(fmt.Sprintf("%s/%s/%s", mix, dist, eng), func(b *testing.B) {
					spec := harness.KVSpec{Mix: mix, Records: 2048, ValueBytes: 64,
						Dist: dist, Shards: 4, ScanMax: 50}
					benchKV(b, spec, eng, 4)
				})
			}
		}
	}
}

// --- Extension: the table/ record layer over the KV store ---

// BenchmarkTableQuery runs the planner-driven table mixes — "query"
// (point / index-range / covering order-limit / upsert churn) and "eidx"
// (YCSB-E re-served from a secondary index) — so the record layer's full
// stack (ordered codec, write-through index maintenance, statistics,
// planner) shows up in accesses/op next to the raw KV mixes.
func BenchmarkTableQuery(b *testing.B) {
	engines := []string{harness.EngRH1Mix2, harness.EngTL2}
	for _, mix := range []string{"query", "eidx"} {
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/%s", mix, eng), func(b *testing.B) {
				spec := harness.KVSpec{Mix: mix, Records: 1024, ValueBytes: 64,
					Dist: harness.DistUniform, Shards: 4, ScanMax: 16,
					Tables: 2, IdxSel: 32}
				benchKV(b, spec, eng, 4)
			})
		}
	}
}

// --- Extension: batching amortization (the ROADMAP batching item) ---

// BenchmarkBatch sweeps the batch size on YCSB-A: grouping independent
// single-key ops into one transaction amortizes per-transaction overhead
// (clock reads, validation, commit metadata), so accesses/op must fall as
// the batch grows — until aborts of the larger footprint eat the gain.
func BenchmarkBatch(b *testing.B) {
	engines := []string{harness.EngRH1Mix2, harness.EngTL2}
	for _, size := range []int{1, 8, 64} {
		for _, eng := range engines {
			b.Run(fmt.Sprintf("size=%d/%s", size, eng), func(b *testing.B) {
				spec := harness.KVSpec{Mix: "a", Records: 2048, ValueBytes: 64,
					Dist: harness.DistUniform, Shards: 4, BatchSize: size}
				benchKV(b, spec, eng, 4)
			})
		}
	}
}

// --- Extension: share-nothing cluster with cross-System 2PC ---

// BenchmarkClusterYCSB sweeps System count × cross-System transaction
// fraction × engine on the cluster's YCSB-A mix. The scaling metric is
// ops/kinterval (committed ops per 1000 critical-path accesses: the
// busiest System's count, since independent Systems progress in parallel);
// 2pc-share reports how much of the traffic ran the distributed commit.
func BenchmarkClusterYCSB(b *testing.B) {
	engines := []string{harness.EngRH1Mix2, harness.EngTL2}
	for _, systems := range []int{1, 4} {
		for _, cross := range []int{0, 20} {
			if systems == 1 && cross != 0 {
				continue // CrossPct is moot on one System: identical run
			}
			for _, eng := range engines {
				b.Run(fmt.Sprintf("s=%d/x=%d/%s", systems, cross, eng), func(b *testing.B) {
					spec := harness.KVSpec{Mix: "a", Records: 2048, ValueBytes: 64,
						Backend: harness.BackendCluster, Dist: harness.DistUniform,
						Systems: systems, CrossPct: cross}
					benchKV(b, spec, eng, 4)
				})
			}
		}
	}
}

// BenchmarkClusterBank drives the cross-System bank-transfer invariant
// workload (every op a two-account transfer, 50% spanning Systems).
func BenchmarkClusterBank(b *testing.B) {
	for _, eng := range []string{harness.EngRH1Mix2, harness.EngTL2} {
		b.Run(eng, func(b *testing.B) {
			spec := harness.KVSpec{Mix: "bank", Records: 256,
				Backend: harness.BackendCluster, Systems: 4, CrossPct: 50}
			benchKV(b, spec, eng, 4)
		})
	}
}

// --- Extension: coordination scenarios (revisions, leases, watches) ---

// BenchmarkSessionCache measures the lease-TTL'd session cache: zipfian
// gets with miss-driven logins (lease grant + leased put) under continuous
// virtual-time expiry churn, on both backends.
func BenchmarkSessionCache(b *testing.B) {
	engines := []string{harness.EngRH1Mix2, harness.EngTL2}
	for _, backend := range []string{harness.BackendStore, harness.BackendCluster} {
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/%s", backend, eng), func(b *testing.B) {
				spec := harness.KVSpec{Mix: "session", Records: 512, ValueBytes: 32,
					Backend: backend, TTL: 8, PumpEvery: 32}
				if backend == harness.BackendCluster {
					spec.Systems = 4
				} else {
					spec.Shards = 4
				}
				benchKV(b, spec, eng, 4)
			})
		}
	}
}

// BenchmarkLockService measures the lease-based lock service: create-only
// CAS acquires, guarded releases, crash-expiry reclaims, and the in-run
// mutual-exclusion audit, on both backends.
func BenchmarkLockService(b *testing.B) {
	engines := []string{harness.EngRH1Mix2, harness.EngTL2}
	for _, backend := range []string{harness.BackendStore, harness.BackendCluster} {
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/%s", backend, eng), func(b *testing.B) {
				spec := harness.KVSpec{Mix: "lock", Records: 64,
					Backend: backend, TTL: 8, PumpEvery: 32}
				if backend == harness.BackendCluster {
					spec.Systems = 4
				} else {
					spec.Shards = 4
				}
				benchKV(b, spec, eng, 4)
			})
		}
	}
}

// --- Extension: WAL group commit (the durability layer) ---

// BenchmarkWALGroupCommit sweeps concurrent committers × engine against a
// durable store whose simulated sync barrier costs real time: with one
// committer every transaction pays the barrier; with many, the
// leader-based group commit amortizes one barrier over the whole group, so
// txns/sync climbs with the group size while syncs/op falls — the same
// batch-amortization shape kv.Batch shows for 2PC, now for durability.
func BenchmarkWALGroupCommit(b *testing.B) {
	engines := []string{harness.EngRH1Mix2, harness.EngTL2}
	for _, group := range []int{1, 4, 16} {
		for _, eng := range engines {
			b.Run(fmt.Sprintf("group=%d/%s", group, eng), func(b *testing.B) {
				s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 19))
				engine, err := harness.Build(s, eng, 0)
				if err != nil {
					b.Fatal(err)
				}
				sh := store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 14})
				dev := &wal.MemDevice{SyncDelay: func() { time.Sleep(20 * time.Microsecond) }}
				db, err := kv.OpenLocal(engine, sh, dev)
				if err != nil {
					b.Fatal(err)
				}
				val := bytes.Repeat([]byte{7}, 64)
				per := (b.N + group - 1) / group
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < group; g++ {
					g := g
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < per; i++ {
							key := []byte(fmt.Sprintf("key-%02d-%02d", g, i%64))
							if err := db.Put(key, val); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				ws := sh.Stats(containers.SetupTx(s)).WAL
				ops := float64(per * group)
				if ws.Syncs > 0 {
					b.ReportMetric(float64(ws.Syncs)/ops, "syncs/op")
					b.ReportMetric(float64(ws.Txns)/float64(ws.Syncs), "txns/sync")
				}
			})
		}
	}
}

// --- Extension: real (mutating) red-black tree, enabled by the safe HTM ---

func BenchmarkExtRealRBTree(b *testing.B) {
	engines := []string{harness.EngRH1Mix2, harness.EngTL2}
	for _, eng := range engines {
		b.Run(eng, func(b *testing.B) {
			benchPoint(b, realRBTreeWorkload(1024, 20, b.N+4096), eng, 4)
		})
	}
}

// realRBTreeWorkload exercises the real mutating tree: an insert, delete
// and lookup mix on nodes keys drawn from twice that range. Deleted nodes
// are not recycled (reclamation under aborting transactions is out of
// scope — see containers.RBTree.Delete), so the heap holds the initial
// population plus one node per potential insert over expectedOps
// operations: inserts are at most half the write ratio of all operations,
// plus slack for allocations repeated by aborted attempts.
func realRBTreeWorkload(nodes, writePct, expectedOps int) harness.Workload {
	inserts := expectedOps*writePct/200 + expectedOps/10 + 1024
	return harness.Workload{
		Name:      "rbtree-real",
		DataWords: (nodes + inserts) * containers.RBNodeWords * 2,
		Build: func(s *rhtm.System) harness.OpFactory {
			tree := containers.NewRBTree(s)
			keys := make([]uint64, nodes)
			for i, k := range rand.New(rand.NewSource(1)).Perm(nodes) {
				keys[i] = uint64(k + 1)
			}
			tree.Populate(keys)
			keyRange := nodes * 2
			return func(threadID int, rng *rand.Rand) func() harness.Op {
				return func() harness.Op {
					key := uint64(rng.Intn(keyRange) + 1)
					r := rng.Intn(200)
					return func(tx rhtm.Tx) error {
						switch {
						case r < writePct: // half of the write budget inserts
							tree.Insert(tx, key, key)
						case r < 2*writePct: // the other half deletes
							tree.Delete(tx, key)
						default:
							tree.Lookup(tx, key)
						}
						return nil
					}
				}
			}
		},
	}
}
