package harness

import (
	"math/rand"

	"rhtm"
	"rhtm/containers"
)

// Op is one transaction body instance.
type Op = func(tx rhtm.Tx) error

// OpFactory builds the per-thread operation generator: every call to the
// returned function yields the next transaction body for that thread.
type OpFactory func(threadID int, rng *rand.Rand) func() Op

// Workload describes one benchmark scenario: how much simulated memory it
// needs, how to populate it, and how threads generate operations.
type Workload struct {
	// Name identifies the workload in output rows.
	Name string
	// DataWords sizes the simulated heap.
	DataWords int
	// Build populates the structure on s and returns the operation factory.
	Build func(s *rhtm.System) OpFactory
}

// constOps are the two operations of one of the paper's constant
// structures, bound to a populated instance.
type constOps struct {
	lookup func(tx rhtm.Tx, key uint64) bool
	update func(tx rhtm.Tx, key, value uint64, rng *rand.Rand) bool
}

// constWorkload is the shape the paper's constant structures share (§3.1,
// §3.3, §3.4): keys 1..n populated up front, then writePct percent updates
// of a uniformly drawn key, the rest lookups. build populates the structure
// on s from the keys and returns its operations.
func constWorkload(name string, n, dataWords, writePct int, build func(s *rhtm.System, keys []uint64) constOps) Workload {
	return Workload{
		Name:      name,
		DataWords: dataWords,
		Build: func(s *rhtm.System) OpFactory {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(i + 1)
			}
			ops := build(s, keys)
			return func(threadID int, rng *rand.Rand) func() Op {
				return func() Op {
					key := uint64(rng.Intn(n) + 1)
					if rng.Intn(100) < writePct {
						val := rng.Uint64()
						return func(tx rhtm.Tx) error {
							ops.update(tx, key, val, rng)
							return nil
						}
					}
					return func(tx rhtm.Tx) error {
						ops.lookup(tx, key)
						return nil
					}
				}
			}
		},
	}
}

// RBTreeWorkload is the paper's Constant Red-Black Tree (§3.1): nodes keys,
// writePct percent rb-update operations, the rest rb-lookup.
func RBTreeWorkload(nodes, writePct int) Workload {
	return constWorkload("rbtree", nodes, nodes*containers.RBNodeWords*5/4+4096, writePct,
		func(s *rhtm.System, keys []uint64) constOps {
			tree := containers.NewRBTree(s)
			shuffle(keys)
			tree.Populate(keys)
			return constOps{tree.ConstLookup, tree.ConstUpdate}
		})
}

// HashTableWorkload is the paper's Constant Hash Table (§3.3).
func HashTableWorkload(elems, writePct int) Workload {
	return constWorkload("hashtable", elems, elems*containers.HTNodeWords*2+elems*2+4096, writePct,
		func(s *rhtm.System, keys []uint64) constOps {
			ht := containers.NewHashTable(s, elems)
			ht.Populate(keys)
			return constOps{ht.ConstQuery, func(tx rhtm.Tx, key, value uint64, _ *rand.Rand) bool {
				return ht.ConstUpdate(tx, key, value)
			}}
		})
}

// SortedListWorkload is the paper's Constant Sorted List (§3.4).
func SortedListWorkload(elems, writePct int) Workload {
	return constWorkload("sortedlist", elems, elems*containers.SLNodeWords*2+4096, writePct,
		func(s *rhtm.System, keys []uint64) constOps {
			l := containers.NewSortedList(s)
			l.Populate(keys)
			return constOps{l.ConstSearch, func(tx rhtm.Tx, key, value uint64, _ *rand.Rand) bool {
				return l.ConstUpdate(tx, key, value)
			}}
		})
}

// RandomArrayWorkload is the paper's Random Array (§3.5): transactions of
// txLen random accesses with writePct percent writes over a size-word array.
func RandomArrayWorkload(size, txLen, writePct int) Workload {
	return Workload{
		Name:      "randarray",
		DataWords: size + 4096,
		Build: func(s *rhtm.System) OpFactory {
			arr := containers.NewRandomArray(s, size)
			arr.Fill(1)
			return func(threadID int, rng *rand.Rand) func() Op {
				return func() Op {
					return func(tx rhtm.Tx) error {
						arr.Op(tx, rng, txLen, writePct)
						return nil
					}
				}
			}
		},
	}
}

// loaderSeed seeds every workload loader/shuffle RNG (the paper's TRANSACT
// date), making populated state reproducible across runs — tests replay the
// loaders against it (see TestYCSBFIncrements).
const loaderSeed = 20130317

// shuffle permutes keys with a fixed seed so runs are reproducible.
func shuffle(keys []uint64) {
	rng := rand.New(rand.NewSource(loaderSeed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
}
