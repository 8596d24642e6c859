package cluster

import (
	"rhtm"
	"rhtm/wal"
)

// Durability. A cluster binds to one WAL stream per System (the redo log of
// that System's committed transactions, local and 2PC applies alike) plus
// the coordinator decision log. The commit-order argument is per System:
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

// WALSet binds a cluster to its durability streams.
type WALSet struct {
	// Data holds one writer per System, indexed by node id.
	Data []*wal.Writer
	// Coord is the coordinator decision log (always fully synchronous —
	// the decision sync is the 2PC commit point).
	Coord *wal.Writer
}

// AttachWAL binds the streams and wires each System store's WAL counters.
// Call during single-threaded setup, after recovery has replayed the
// streams into the stores (see the kv layer's OpenCluster).
func (c *Cluster) AttachWAL(ws *WALSet) {
	c.wal = ws
	for i, n := range c.nodes {
		w := ws.Data[i]
		n.st.SetWALStats(w.Stats)
	}
}

// WAL returns the attached streams (nil when the cluster runs volatile).
func (c *Cluster) WAL() *WALSet { return c.wal }

// RestoreTxID floors the cluster's transaction-id counter — recovery calls
// it with the largest id found in the logs so new cross-System transactions
// never reuse a logged id.
func (c *Cluster) RestoreTxID(max uint64) {
	for {
		cur := c.nextTxID.Load()
		if cur >= max || c.nextTxID.CompareAndSwap(cur, max) {
			return
		}
	}
}

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

// CheckpointWAL writes a full-state checkpoint to every System's stream and
// truncates the coordinator log's resolved history. It drains in-flight
// cross-System commits (they hold the drain lock in read mode across
// decision, applies, and mark), then:
//
//  1. syncs the decision log, making every decision and resolution mark
//     durable — after this, recovery never needs pre-checkpoint data
//     frames to resolve an in-doubt transaction;
//  2. snapshots each System's store in one engine transaction and writes
//     it as that stream's checkpoint (synced);
//  3. appends a global mark to the decision log: everything before it is
//     resolved and folded into the checkpoints.
//
// Local commits keep flowing throughout — only 2PC decisions pause.
func (cl *Client) CheckpointWAL() error {
	c := cl.c
	if c.wal == nil {
		return wal.ErrNoWAL
	}
	c.walMu.Lock()
	defer c.walMu.Unlock()
	if err := c.wal.Coord.Sync(); err != nil {
		return err
	}
	for i, n := range c.nodes {
		node := n
		thread := cl.threads[i]
		err := c.wal.Data[i].Checkpoint(func() ([]wal.Op, error) {
			var ops []wal.Op
			err := thread.Atomic(func(tx rhtm.Tx) error {
				ops = node.st.Snapshot(tx)
				return nil
			})
			return ops, err
		})
		if err != nil {
			return err
		}
	}
	if err := c.wal.Coord.Mark(0, wal.FlagGlobal); err != nil {
		return err
	}
	return c.wal.Coord.Sync()
}
