package cluster

import (
	"rhtm"
	"rhtm/wal"
)

// Durability. A cluster binds to a wal.Set: one data stream per System (the
// redo log of that System's committed transactions, local and 2PC applies
// alike) plus the coordinator decision log, which the kv layer opens and
// attaches as it does a single System's one stream. The commit-order
// argument is per System:
// every committed transaction there advanced the System store's revision
// word, so the stream's sequence gate orders frames exactly as the System
// committed them, whatever engine ran the transactions.
//
// Cross-System atomicity cannot come from per-System streams alone, so the
// 2PC coordinator's decision becomes durable before phase 2 runs: commit
// decisions (with the full write set) are group-committed to the decision
// log and synced — the durable commit point — then the per-System applies
// are logged and synced on their own streams, then a resolution mark for
// the transaction is appended to the decision log. A recovered coordinator
// therefore resolves every in-doubt transaction forward: a logged commit
// decision without its mark is re-applied (skipping writes the per-System
// logs already show, keyed by the cluster transaction id), and a decision
// that never reached the log aborts by omission — its intents were volatile.
// Abort decisions are never logged; absence is the abort record.

// AttachWAL binds the writer set the cluster's commit path logs to and
// floors the transaction-id counter at maxTxID, the largest id the logs
// hold, so new cross-System transactions never reuse a logged id. Call
// during single-threaded setup, after recovery has replayed the streams
// into the stores (the kv layer's OpenCluster and Promote).
func (c *Cluster) AttachWAL(ws *wal.Set, maxTxID uint64) {
	c.wal = ws
	if c.nextTxID.Load() < maxTxID {
		c.nextTxID.Store(maxTxID)
	}
}

// WAL returns the attached writer set (nil when the cluster runs volatile).
func (c *Cluster) WAL() *wal.Set { return c.wal }

// logLocal publishes one committed single-System transaction to the
// System's stream. No-op without a WAL or for read-only transactions.
func (cl *Client) logLocal(nodeID int, recs []wal.Op) error {
	if cl.c.wal == nil || len(recs) == 0 {
		return nil
	}
	return cl.c.wal.Data[nodeID].Commit(0, 0, recs)
}

// logApply publishes one participant's phase-2 applies and forces them
// durable: whatever the data streams' relaxed sync policy, a decided
// cross-System transaction must not be torn by a crash, so its applies
// sync before the transaction is marked resolved.
func (cl *Client) logApply(nodeID int, txid uint64, recs []wal.Op) error {
	if cl.c.wal == nil || len(recs) == 0 {
		return nil
	}
	w := cl.c.wal.Data[nodeID]
	if err := w.Commit(txid, wal.FlagCross, recs); err != nil {
		return err
	}
	return w.Sync()
}

// CheckpointWAL writes the writer set's checkpoint (wal.Set.Checkpoint),
// each System's body snapshotted in one engine transaction on this client's
// thread there. It holds the drain lock in write mode: in-flight
// cross-System commits hold it in read mode across decision, applies and
// mark, so none runs between the decision log's sync and its global mark.
// Local commits keep flowing throughout — only 2PC decisions pause.
func (cl *Client) CheckpointWAL() error {
	c := cl.c
	if c.wal == nil {
		return wal.ErrNoWAL
	}
	c.walMu.Lock()
	defer c.walMu.Unlock()
	return c.wal.Checkpoint(func(i int) ([]wal.Op, error) {
		var ops []wal.Op
		err := cl.threads[i].Atomic(func(tx rhtm.Tx) error {
			ops = c.nodes[i].st.Snapshot(tx)
			return nil
		})
		return ops, err
	})
}
