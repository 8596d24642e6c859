package cluster

import (
	"bytes"
	"slices"

	"rhtm"
)

// Batched operations: a Batch groups independent single-key operations into
// one atomic transaction. When one System owns every key, the whole batch
// is a single engine transaction there — what the server's per-System
// batcher lanes always send, so k merged operations cost one transaction
// instead of k. A batch whose keys span Systems is a buffered Txn like any
// other: its operations play in batch order, a Get or Delete reading its key
// through once, and it commits through the one two-phase round.

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

// batchKey is one distinct key of a single-System batch, and whether an
// operation of the batch writes it.
type batchKey struct {
	key     []byte
	written bool
}

// Batch executes ops as one atomic transaction and returns per-op results,
// or ErrConflict at the first conflict (a pending intent on one of its keys,
// a failed validation, a refused prepare), having changed nothing.
func (cl *Client) Batch(ops []BatchOp) ([]BatchResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	cl.lastRev = 0
	results := make([]BatchResult, len(ops))
	nodeID := cl.c.router.SystemFor(ops[0].Key)
	for i := 1; i < len(ops); i++ {
		if cl.c.router.SystemFor(ops[i].Key) != nodeID {
			return results, cl.batchTxn(ops, results)
		}
	}
	return results, cl.batchLocal(nodeID, ops, results)
}

// batchTxn plays a batch that spans Systems on a buffered Txn, in batch
// order, and commits it. A blind Put costs nothing until the commit; a Get
// or Delete reads its key through once (a Delete reports prior presence).
func (cl *Client) batchTxn(ops []BatchOp, results []BatchResult) error {
	t := NewTxn(cl)
	for i, op := range ops {
		switch op.Kind {
		case BatchGet:
			v, ok, err := t.Get(op.Key)
			if err != nil {
				return err
			}
			results[i] = BatchResult{Value: v, Found: ok}
		case BatchPut:
			t.Put(op.Key, op.Value)
		default:
			ok, err := t.Delete(op.Key)
			if err != nil {
				return err
			}
			results[i] = BatchResult{Found: ok}
		}
	}
	return cl.commit(t)
}

// batchLocal runs a single-System batch through commitOn: all the
// atomicity comes from the engine, exactly like commitLocal.
func (cl *Client) batchLocal(nodeID int, ops []BatchOp, results []BatchResult) error {
	// Group the ops by distinct key, ascending: one sort of their indices
	// by key makes each key's operations a run of it.
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return bytes.Compare(ops[a].Key, ops[b].Key) })
	keys := make([]batchKey, 0, len(ops))
	for lo, hi := 0, 0; lo < len(idx); lo = hi {
		written := false
		for hi < len(idx) && bytes.Equal(ops[idx[hi]].Key, ops[idx[lo]].Key) {
			written = written || ops[idx[hi]].Kind != BatchGet
			hi++
		}
		keys = append(keys, batchKey{key: ops[idx[lo]].Key, written: written})
	}
	err := cl.commitOn(nodeID, func(tx rhtm.Tx, w *localWrites) error {
		for i := range keys {
			if !w.free(tx, keys[i].key, keys[i].written) {
				return ErrConflict
			}
		}
		// Every operation is this System's: execute them in batch order,
		// exactly as submitted.
		for i, op := range ops {
			switch op.Kind {
			case BatchGet:
				v, ok := w.n.st.Get(tx, op.Key)
				results[i] = BatchResult{Value: v, Found: ok}
			default:
				found, err := w.write(tx, op.Key, Write{Value: op.Value, Delete: op.Kind == BatchDelete})
				if err != nil {
					return err
				}
				results[i] = BatchResult{Found: found}
			}
		}
		return nil
	})
	cl.countIntentWait(err)
	return err
}
