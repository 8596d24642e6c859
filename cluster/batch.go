package cluster

import (
	"bytes"
	"slices"

	"rhtm"
	"rhtm/store"
	"rhtm/wal"
)

// Batched operations: a Batch groups independent single-key operations into
// one atomic transaction, amortizing per-transaction overhead (the
// ROADMAP's store-level batching item, lifted to the cluster). The batch
// splits into per-System local groups: when one System owns every key, the
// whole batch is a single engine transaction there; when several do, each
// participant prepares its entire group in one engine transaction —
// executing the group's reads and installing one intent per key — and a
// single 2PC decision commits them all. Either way a batch of k operations
// costs O(participants) transactions instead of k.

// BatchOpKind selects what one batch operation does.
type BatchOpKind uint8

const (
	// BatchGet reads Key into the BatchResult.
	BatchGet BatchOpKind = iota
	// BatchPut stores Key→Value.
	BatchPut
	// BatchDelete removes Key; BatchResult.Found reports prior presence.
	BatchDelete
)

// BatchOp is one operation of a batch.
type BatchOp struct {
	Kind  BatchOpKind
	Key   []byte
	Value []byte // BatchPut only
}

// BatchResult is the outcome of one batch operation. For BatchGet, Value
// and Found report the read; for BatchDelete, Found reports whether the key
// existed. Operations observe each other in batch order: a Get after a Put
// of the same key sees the Put.
type BatchResult struct {
	Value []byte
	Found bool
}

// batchKey is one distinct key of a batch on one participant, with the
// batch-order indices of the operations touching it.
type batchKey struct {
	key []byte
	ops []int
}

// Batch executes ops as one atomic transaction and returns per-op results,
// or ErrConflict at the first conflict (a pending intent on one of its keys,
// a refused prepare), having changed nothing.
func (cl *Client) Batch(ops []BatchOp) ([]BatchResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	cl.lastRev = 0
	results := make([]BatchResult, len(ops))

	// Group op indices by owning System, then by distinct key within each
	// (ascending — the deterministic intent acquisition order), preserving
	// batch order within a key: one sort of the indices by (System, key,
	// index) makes each key's operations a run of it, and each System's keys
	// a run of the groups. One allocation holds the indices and their Systems.
	idx := make([]int, 2*len(ops))
	idx, nodeOf := idx[:len(ops)], idx[len(ops):]
	for i := range ops {
		idx[i], nodeOf[i] = i, cl.c.router.SystemFor(ops[i].Key)
	}
	slices.SortFunc(idx, func(a, b int) int {
		if nodeOf[a] != nodeOf[b] {
			return nodeOf[a] - nodeOf[b]
		}
		if c := bytes.Compare(ops[a].Key, ops[b].Key); c != 0 {
			return c
		}
		return a - b
	})
	keys := make([]batchKey, 0, len(ops))
	for lo, hi := 0, 0; lo < len(idx); lo = hi {
		for hi < len(idx) && bytes.Equal(ops[idx[hi]].Key, ops[idx[lo]].Key) {
			hi++
		}
		keys = append(keys, batchKey{key: ops[idx[lo]].Key, ops: idx[lo:hi]})
	}

	if first := nodeOf[idx[0]]; first == nodeOf[idx[len(idx)-1]] {
		return results, cl.batchLocal(first, keys, ops, results)
	}
	byNode := map[int][]batchKey{}
	var participants []int
	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		nodeID := nodeOf[keys[lo].ops[0]]
		for hi < len(keys) && nodeOf[keys[hi].ops[0]] == nodeID {
			hi++
		}
		byNode[nodeID] = keys[lo:hi]
		participants = append(participants, nodeID)
	}
	return results, cl.batchCross(byNode, participants, ops, results)
}

// batchLocal runs a single-System batch as one engine transaction: all the
// atomicity comes from the engine, exactly like commitLocal.
func (cl *Client) batchLocal(nodeID int, keys []batchKey, ops []BatchOp, results []BatchResult) error {
	n := cl.c.nodes[nodeID]
	var recs []wal.Op
	var maxRev uint64
	err := cl.threads[nodeID].Atomic(func(tx rhtm.Tx) error {
		recs = recs[:0] // the body re-executes on engine aborts
		maxRev = 0
		for i := range keys {
			written := false
			for _, op := range keys[i].ops {
				if ops[op].Kind != BatchGet {
					written = true
					break
				}
			}
			if written {
				if n.st.AnyIntentOn(tx, keys[i].key) {
					return ErrConflict
				}
			} else if _, held := n.st.WriteIntentOn(tx, keys[i].key); held {
				return ErrConflict
			}
		}
		// Every operation is this System's: execute them in batch order,
		// exactly as submitted.
		for op := range ops {
			switch ops[op].Kind {
			case BatchGet:
				v, ok := n.st.Get(tx, ops[op].Key)
				results[op] = BatchResult{Value: v, Found: ok}
			case BatchPut:
				rev, err := n.st.PutStamped(tx, ops[op].Key, ops[op].Value, 0)
				if err != nil {
					return err
				}
				if rev > maxRev {
					maxRev = rev
				}
				if cl.c.wal != nil {
					recs = append(recs, wal.Op{Kind: wal.OpPut,
						Key: ops[op].Key, Value: ops[op].Value, Rev: rev})
				}
				results[op] = BatchResult{}
			default:
				rev, found := n.st.DeleteStamped(tx, ops[op].Key)
				if found {
					if rev > maxRev {
						maxRev = rev
					}
					if cl.c.wal != nil {
						recs = append(recs, wal.Op{Kind: wal.OpDelete, Key: ops[op].Key, Rev: rev})
					}
				}
				results[op] = BatchResult{Found: found}
			}
		}
		return nil
	})
	cl.countIntentWait(err)
	if err == nil {
		cl.c.localTxns.Add(1)
		if maxRev > cl.lastRev {
			cl.lastRev = maxRev
		}
		return cl.logLocal(nodeID, recs)
	}
	return err
}

// batchCross runs a multi-System batch as one shared twoPhase round.
func (cl *Client) batchCross(byNode map[int][]batchKey, participants []int, ops []BatchOp, results []BatchResult) error {
	return cl.twoPhase(participants,
		func(nodeID int) [][]byte {
			keys := make([][]byte, len(byNode[nodeID]))
			for i := range byNode[nodeID] {
				keys[i] = byNode[nodeID][i].key
			}
			return keys
		},
		func(nodeID int, txid uint64) error {
			return cl.prepareBatch(nodeID, txid, byNode[nodeID], ops, results)
		},
		func() []wal.Op { return batchDecisionOps(byNode, participants, ops) })
}

// batchDecisionOps serializes a cross batch's write set for the decision
// log: each written key's net effect is its last non-Get operation in
// batch order (independent of the committed state the prepare observed).
func batchDecisionOps(byNode map[int][]batchKey, participants []int, ops []BatchOp) []wal.Op {
	var out []wal.Op
	for _, nodeID := range participants {
		for i := range byNode[nodeID] {
			bk := &byNode[nodeID][i]
			last := -1
			for _, op := range bk.ops {
				if ops[op].Kind != BatchGet {
					last = op
				}
			}
			if last < 0 {
				continue // read-only key: nothing to recover forward
			}
			op := wal.Op{Part: nodeID, Key: bk.key}
			if ops[last].Kind == BatchPut {
				op.Kind = wal.OpPut
				op.Value = ops[last].Value
			} else {
				op.Kind = wal.OpDelete
			}
			out = append(out, op)
		}
	}
	return out
}

// prepareBatch is the phase-1 transaction of a cross-System batch on one
// participant: for every distinct key it reads the committed value, plays
// the key's operations in batch order against an overlay (filling Get and
// Delete results), and installs one intent recording the net effect —
// IntentPut/IntentDelete when the key was written, IntentRead to pin a key
// the batch only read. It stays apart from Client.prepare because it executes
// the reads in place: a batch pays no read-through pass before its prepare
// and no revalidation in it. Its callers are explicit Batch calls whose keys
// span Systems (kv.ClusterDB.Batch in process, the server's KindBatch
// handler, the harness's batched cluster-* rows); the server's batcher
// merges single-key requests per System and never gets here.
func (cl *Client) prepareBatch(nodeID int, txid uint64, keys []batchKey, ops []BatchOp, results []BatchResult) error {
	n := cl.c.nodes[nodeID]
	return cl.threads[nodeID].Atomic(func(tx rhtm.Tx) error {
		for i := range keys {
			bk := &keys[i]
			val, ok := n.st.Get(tx, bk.key)
			written := false
			for _, op := range bk.ops {
				switch ops[op].Kind {
				case BatchGet:
					if ok {
						results[op] = BatchResult{Value: copyVal(val), Found: true}
					} else {
						results[op] = BatchResult{}
					}
				case BatchPut:
					val, ok = ops[op].Value, true
					written = true
					results[op] = BatchResult{}
				default:
					results[op] = BatchResult{Found: ok}
					val, ok = nil, false
					written = true
				}
			}
			kind, ival := store.IntentRead, []byte(nil)
			if written {
				if ok {
					kind, ival = store.IntentPut, val
				} else {
					kind = store.IntentDelete
				}
			}
			if err := n.st.PrepareIntent(tx, bk.key, txid, kind, ival, 0); err != nil {
				if err == store.ErrIntentHeld {
					return ErrConflict
				}
				return err
			}
		}
		return nil
	})
}
