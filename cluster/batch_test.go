package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rhtm/wal"
)

// keysOnSystem returns n distinct keys the router places on System id.
func keysOnSystem(c *Cluster, id, n int) [][]byte {
	var keys [][]byte
	for i := 0; len(keys) < n; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		if c.Router().SystemFor(k) == id {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestBatchGrouping: random batches — repeated keys, every op kind, on one
// System or across several — return what a sequential map model returns,
// leave the state it leaves, and log what it predicts. A single-System
// batch logs its puts and found deletes in batch order on its System's
// stream. A cross-System batch logs one decision holding each written key's
// last operation, participants ascending and keys ascending within each,
// and on each participant's stream the keys whose state changed, ascending.
func TestBatchGrouping(t *testing.T) {
	for _, systems := range []int{2, 3} {
		t.Run(fmt.Sprintf("systems=%d", systems), func(t *testing.T) {
			c := MustNew(smallConfig(systems))
			stg := attachMemStorage(t, c)
			cl := c.NewClient()
			rng := rand.New(rand.NewSource(int64(systems)))

			// Four keys a System: few enough that most batches repeat one.
			pools := make([][][]byte, systems)
			var all [][]byte
			for id := range pools {
				pools[id] = keysOnSystem(c, id, 4)
				all = append(all, pools[id]...)
			}
			model := map[string][]byte{}
			want := map[string][]wal.TxnGroup{} // by stream name
			var local, cross int
			for round := 0; round < 400; round++ {
				keys := all
				if rng.Intn(2) == 0 {
					keys = pools[rng.Intn(systems)]
				}
				// Up to 24 ops: past 12 the sort stops being an insertion
				// sort, which would keep equal keys in batch order anyway.
				ops := make([]BatchOp, 1+rng.Intn(24))
				nodes := map[int]bool{}
				for i := range ops {
					k := keys[rng.Intn(len(keys))]
					nodes[c.Router().SystemFor(k)] = true
					switch rng.Intn(3) {
					case 0:
						ops[i] = BatchOp{Kind: BatchGet, Key: k}
					case 1:
						ops[i] = BatchOp{Kind: BatchPut, Key: k, Value: []byte(fmt.Sprintf("v%d.%d", round, i))}
					default:
						ops[i] = BatchOp{Kind: BatchDelete, Key: k}
					}
				}
				got, err := cl.Batch(ops)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}

				// Play the batch on the model, in batch order.
				before := map[string][]byte{}
				for _, op := range ops {
					if v, ok := model[string(op.Key)]; ok {
						before[string(op.Key)] = v
					}
				}
				var recs []wal.Op // a single-System batch's log, batch order
				for i, op := range ops {
					k := string(op.Key)
					v, ok := model[k]
					var res BatchResult
					switch op.Kind {
					case BatchGet:
						res = BatchResult{Value: v, Found: ok}
					case BatchPut:
						model[k] = op.Value
						recs = append(recs, wal.Op{Kind: wal.OpPut, Key: op.Key, Value: op.Value})
					default:
						res = BatchResult{Found: ok}
						delete(model, k)
						if ok {
							recs = append(recs, wal.Op{Kind: wal.OpDelete, Key: op.Key})
						}
					}
					if got[i].Found != res.Found || !bytes.Equal(got[i].Value, res.Value) {
						t.Fatalf("round %d op %d (%v %s): got %+v, model %+v", round, i, op.Kind, op.Key, got[i], res)
					}
				}

				if len(nodes) == 1 {
					local++
					if len(recs) > 0 {
						name := fmt.Sprintf("sys-%d", c.Router().SystemFor(ops[0].Key))
						want[name] = append(want[name], wal.TxnGroup{Ops: recs})
					}
					continue
				}
				cross++
				var decision []wal.Op
				for id := 0; id < systems; id++ {
					var distinct [][]byte
					for _, op := range ops {
						if c.Router().SystemFor(op.Key) == id && !slices.ContainsFunc(distinct, func(k []byte) bool { return bytes.Equal(k, op.Key) }) {
							distinct = append(distinct, op.Key)
						}
					}
					slices.SortFunc(distinct, bytes.Compare)
					var applies []wal.Op
					for _, k := range distinct {
						last := -1
						for i, op := range ops {
							if op.Kind != BatchGet && bytes.Equal(op.Key, k) {
								last = i
							}
						}
						if last < 0 {
							continue // read only: an intent, nothing logged
						}
						d := wal.Op{Part: id, Kind: wal.OpDelete, Key: k}
						if ops[last].Kind == BatchPut {
							d.Kind, d.Value = wal.OpPut, ops[last].Value
						}
						decision = append(decision, d)
						if v, ok := model[string(k)]; ok {
							applies = append(applies, wal.Op{Kind: wal.OpPut, Key: k, Value: v})
						} else if _, was := before[string(k)]; was {
							applies = append(applies, wal.Op{Kind: wal.OpDelete, Key: k})
						}
					}
					if len(applies) > 0 {
						name := fmt.Sprintf("sys-%d", id)
						want[name] = append(want[name], wal.TxnGroup{Cross: true, Ops: applies})
					}
				}
				if len(decision) > 0 {
					want["coord"] = append(want["coord"], wal.TxnGroup{Cross: true, Ops: decision})
				}
			}
			if local == 0 || cross == 0 {
				t.Fatalf("%d single-System and %d cross-System batches: the mix must cover both", local, cross)
			}

			for _, k := range all {
				v, ok := c.Peek(k)
				mv, mok := model[string(k)]
				if ok != mok || !bytes.Equal(v, mv) {
					t.Errorf("%s = %q (%v), model %q (%v)", k, v, ok, mv, mok)
				}
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			names := []string{"coord"}
			for id := 0; id < systems; id++ {
				names = append(names, fmt.Sprintf("sys-%d", id))
			}
			for _, name := range names {
				dev, err := stg.Device(name)
				if err != nil {
					t.Fatal(err)
				}
				scan, err := wal.OpenDevice(dev)
				if err != nil {
					t.Fatal(err)
				}
				if diff := diffGroups(scan.Txns, want[name]); diff != "" {
					t.Errorf("stream %s: %s", name, diff)
				}
			}
		})
	}
}

// diffGroups compares logged transaction groups with the model's by cross
// flag and operations (partition, kind, key, value), in order; ids and
// revisions are the log's to choose. It describes the first difference, or
// returns "".
func diffGroups(got, want []wal.TxnGroup) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d transaction groups logged, model %d", len(got), len(want))
	}
	for g := range got {
		if got[g].Cross != want[g].Cross || len(got[g].Ops) != len(want[g].Ops) {
			return fmt.Sprintf("group %d: cross %v with %d ops, model cross %v with %d",
				g, got[g].Cross, len(got[g].Ops), want[g].Cross, len(want[g].Ops))
		}
		for i, op := range got[g].Ops {
			w := want[g].Ops[i]
			if op.Part != w.Part || op.Kind != w.Kind || !bytes.Equal(op.Key, w.Key) || !bytes.Equal(op.Value, w.Value) {
				return fmt.Sprintf("group %d op %d: %d/%v %s=%q, model %d/%v %s=%q",
					g, i, op.Part, op.Kind, op.Key, op.Value, w.Part, w.Kind, w.Key, w.Value)
			}
		}
	}
	return ""
}

// TestBatchGroupingAllocs: a single-System batch allocates per batch, not
// per operation. Without a WAL, 1 and 16 distinct keys both cost 6
// allocations. Over a WAL they cost 9 and 13: the four extra are the log
// record slice doubling to 16 entries (1, 2, 4, 8, 16). Grouping through a
// map keyed by string(key) cost about three allocations per operation (47
// and 54 for 16 keys).
func TestBatchGroupingAllocs(t *testing.T) {
	for _, tc := range []struct {
		wal   bool
		extra float64 // allocations 16 keys may add over 1
	}{{false, 0}, {true, 4}} {
		c := MustNew(smallConfig(2))
		if tc.wal {
			attachMemWAL(t, c)
		}
		cl := c.NewClient()
		keys := keysOnSystem(c, 0, 16)
		allocs := func(n, runs int) float64 {
			ops := make([]BatchOp, n)
			for i := range ops {
				ops[i] = BatchOp{Kind: BatchPut, Key: keys[i], Value: []byte("v")}
			}
			return testing.AllocsPerRun(runs, func() {
				if _, err := cl.Batch(ops); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Warm up first: until the arena recycles its blocks, overwrites
		// reach fresh simulated lines, whose lock stripes allocate on first
		// touch.
		allocs(16, 500)
		if one, sixteen := allocs(1, 100), allocs(16, 100); sixteen > one+tc.extra {
			t.Errorf("wal=%v: a 16-key batch costs %v allocations, a 1-key batch %v; want at most %v more",
				tc.wal, sixteen, one, tc.extra)
		}
	}
}

// TestCrossBatchTraffic pins what a batch that spans Systems costs each
// participant in engine transactions: one prepare and one finish, plus one
// read-through per distinct key the batch reads there. Blind Puts read
// nothing; a Get or Delete reads its key once, however often the batch
// names it.
func TestCrossBatchTraffic(t *testing.T) {
	c := MustNew(smallConfig(2))
	cl := c.NewClient()
	k0, k1 := keysOnSystem(c, 0, 2), keysOnSystem(c, 1, 2)
	commits := func() [2]uint64 {
		return [2]uint64{c.Node(0).Engine().Snapshot().Commits(), c.Node(1).Engine().Snapshot().Commits()}
	}
	for _, tc := range []struct {
		name string
		ops  []BatchOp
		want [2]uint64 // engine transactions per System
	}{
		{"blind puts", []BatchOp{
			{Kind: BatchPut, Key: k0[0], Value: []byte("a")},
			{Kind: BatchPut, Key: k1[0], Value: []byte("b")},
			{Kind: BatchPut, Key: k0[1], Value: []byte("c")},
		}, [2]uint64{2, 2}},
		{"reads", []BatchOp{
			{Kind: BatchGet, Key: k0[0]},
			{Kind: BatchGet, Key: k0[0]},
			{Kind: BatchPut, Key: k0[0], Value: []byte("d")},
			{Kind: BatchDelete, Key: k0[1]},
			{Kind: BatchGet, Key: k1[1]},
			{Kind: BatchPut, Key: k1[0], Value: []byte("e")},
		}, [2]uint64{2 + 2, 2 + 1}},
	} {
		before := commits()
		if _, err := cl.Batch(tc.ops); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		after := commits()
		if got := [2]uint64{after[0] - before[0], after[1] - before[1]}; got != tc.want {
			t.Errorf("%s: engine transactions per System %v, want %v", tc.name, got, tc.want)
		}
	}
	if st := c.Stats(); st.CrossCommits != 2 || st.LocalTxns != 0 {
		t.Errorf("cross commits %d, local transactions %d; want 2 and 0 (read-throughs are not client operations)",
			st.CrossCommits, st.LocalTxns)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
