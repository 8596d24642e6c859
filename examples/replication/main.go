// replication runs the repl/ subsystem end to end over loopback TCP: a
// WAL-backed primary ships its log to two follower Systems, each serving
// follower reads at a provable revision watermark behind its own server,
// and the client routes reads to them with WithFollowerReads while writes
// go to the primary. Mid-workload the primary "dies": the group fences its
// log writers, a zombie write through the old address is rejected with
// kv.ErrFenced, and the most-caught-up replica is promoted — replaying the
// log tail, bumping the membership epoch, and taking over at the address
// it was already serving. Clients re-route by dialing the promoted
// replica as the new primary.
//
// The fencing-token handoff reuses the coordination example's pattern:
// every reign records its leadership under a key whose revision is the
// fencing token, and the token must grow strictly across the failover —
// the membership epoch (1 before, 2 after) is the cluster-level form of
// the same guard, stamped into the log so recovery and replicas agree on
// who may write.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"

	"rhtm"
	"rhtm/client"
	"rhtm/kv"
	"rhtm/repl"
	"rhtm/server"
	"rhtm/server/wire"
	"rhtm/store"
	"rhtm/wal"
)

const (
	orders   = 120
	replicas = 2
)

var leaderKey = []byte("election/leader")

func main() {
	summary, err := run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(summary)
}

// newSystem builds one simulated machine: an engine over a sharded store.
func newSystem() (rhtm.Engine, kv.Storer) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	return rhtm.NewTL2(s), store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13})
}

// replicaHealth feeds the group's per-replica watermarks to the rows the
// server's Health RPC reports.
func replicaHealth(g *repl.Group) func() []wire.ReplicaHealth {
	return func() []wire.ReplicaHealth {
		sts := g.Status()
		out := make([]wire.ReplicaHealth, len(sts))
		for i, st := range sts {
			out[i] = wire.ReplicaHealth(st)
		}
		return out
	}
}

// run executes the scenario and returns a human-readable summary; the
// smoke test drives it directly.
func run() (string, error) {
	// The primary: a WAL-backed DB whose log is the replication stream.
	eng, st := newSystem()
	dev, err := wal.NewMemStorage().Device("wal")
	if err != nil {
		return "", err
	}
	primary, err := kv.OpenLocal(eng, st, dev)
	if err != nil {
		return "", err
	}
	group, err := repl.NewLocalGroup(primary, dev)
	if err != nil {
		return "", err
	}
	defer group.Close()

	// Two replicas, each a full System tailing the log, each behind its
	// own server. The follower's DB is the same surface the primary
	// serves, so the wire layer needs no replication-specific handling
	// beyond the follower-read request.
	var followers []*repl.Follower
	var followerAddrs []string
	for i := 0; i < replicas; i++ {
		reng, rst := newSystem()
		f, err := group.AddLocalReplica(reng, rst)
		if err != nil {
			return "", err
		}
		srv := server.New(f.DB())
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer srv.Close()
		followers = append(followers, f)
		followerAddrs = append(followerAddrs, addr.String())
	}
	psrv := server.New(primary, server.WithReplicaStatus(replicaHealth(group)))
	paddr, err := psrv.Start("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer psrv.Close()

	// The client: writes to the primary, reads round-robin from the
	// replicas, demanding read-your-writes with a revision floor.
	cl, err := client.Dial(paddr.String(), client.WithFollowerReads(followerAddrs...))
	if err != nil {
		return "", err
	}
	defer cl.Close()

	var floor kv.Revision
	for i := 0; i < orders; i++ {
		k := []byte(fmt.Sprintf("order-%03d", i))
		if err := cl.Put(k, []byte("status=placed epoch=1")); err != nil {
			return "", err
		}
		if i == orders-1 {
			if _, floor, err = cl.GetRev(k); err != nil {
				return "", err
			}
		}
	}
	// Reign 1 records its leadership; the key's revision is the fencing
	// token (the coordination example's guard, one level down the stack).
	if err := cl.PutIf(leaderKey, []byte("epoch=1"), 0); err != nil {
		return "", err
	}
	_, fence1, err := cl.GetRev(leaderKey)
	if err != nil {
		return "", err
	}

	// Follower reads at the floor: each replica must prove it has applied
	// at least the last write before answering, and may never report a
	// revision past its own watermark.
	for _, f := range followers {
		if err := f.WaitIdle(); err != nil {
			return "", err
		}
	}
	// The primary's Health RPC shows the same: one row per replica stream,
	// each applied up to the primary's last append.
	h, err := cl.AdminHealth()
	if err != nil {
		return "", err
	}
	if len(h.Replicas) != replicas {
		return "", fmt.Errorf("health reports %d replicas, want %d", len(h.Replicas), replicas)
	}
	for _, r := range h.Replicas {
		if r.LagFrames != 0 || r.AppliedRev < uint64(floor) {
			return "", fmt.Errorf("replica %s not caught up: %+v", r.Name, r)
		}
	}
	served := 0
	for i := 0; i < orders; i += 7 {
		k := []byte(fmt.Sprintf("order-%03d", i))
		v, rev, wm, err := cl.ReadAt(k, floor)
		if err != nil {
			return "", fmt.Errorf("follower read %s: %w", k, err)
		}
		if !bytes.Equal(v, []byte("status=placed epoch=1")) {
			return "", fmt.Errorf("follower read %s: %q", k, v)
		}
		if rev > wm {
			return "", fmt.Errorf("follower read %s: rev %d past watermark %d", k, rev, wm)
		}
		served++
	}

	// The primary dies mid-flight: the group fences its log writers. A
	// zombie write through the old address now fails with kv.ErrFenced —
	// across the wire, as the deposed machine's clients would see it.
	group.Kill()
	if err := cl.Put([]byte("order-zombie"), []byte("late")); !errors.Is(err, kv.ErrFenced) {
		return "", fmt.Errorf("zombie write: err = %v, want kv.ErrFenced", err)
	}

	// Promotion: the most-caught-up replica replays the log tail and takes
	// over under the next epoch. Its server was already running — clients
	// re-route by treating its address as the new primary.
	_, promoted, err := group.Promote()
	if err != nil {
		return "", err
	}
	m := group.Membership()
	if m.Epoch != 2 || m.Primary != promoted.Name() {
		return "", fmt.Errorf("membership after failover: %+v", m)
	}
	var newAddr, survivorAddr string
	for i, f := range followers {
		if f == promoted {
			newAddr = followerAddrs[i]
		} else {
			survivorAddr = followerAddrs[i]
		}
	}
	cl2, err := client.Dial(newAddr, client.WithFollowerReads(survivorAddr))
	if err != nil {
		return "", err
	}
	defer cl2.Close()

	// Every acknowledged write survived; the zombie did not.
	for i := 0; i < orders; i++ {
		k := []byte(fmt.Sprintf("order-%03d", i))
		if _, err := cl2.Get(k); err != nil {
			return "", fmt.Errorf("%s lost in failover: %w", k, err)
		}
	}
	if _, err := cl2.Get([]byte("order-zombie")); !errors.Is(err, kv.ErrNotFound) {
		return "", fmt.Errorf("zombie write survived the fence: %v", err)
	}

	// Fencing-token handoff: reign 2 takes the leader key with a guarded
	// conditional write at the token it inherited — a deposed leader
	// holding fence1 can no longer win — and the new token must grow.
	if err := cl2.PutIf(leaderKey, []byte("epoch=2"), fence1); err != nil {
		return "", fmt.Errorf("leadership handoff: %w", err)
	}
	_, fence2, err := cl2.GetRev(leaderKey)
	if err != nil {
		return "", err
	}
	if fence2 <= fence1 {
		return "", fmt.Errorf("fencing token did not grow: %d then %d", fence1, fence2)
	}

	// Life under the new epoch: writes to the promoted primary replicate
	// to the surviving follower, which keeps serving follower reads.
	if err := cl2.Put([]byte("order-new"), []byte("status=placed epoch=2")); err != nil {
		return "", err
	}
	var survivor *repl.Follower
	for _, f := range followers {
		if f != promoted {
			survivor = f
		}
	}
	if err := survivor.WaitIdle(); err != nil {
		return "", err
	}
	v, rev, wm, err := cl2.ReadAt([]byte("order-new"), 0)
	if err != nil {
		return "", err
	}
	if !bytes.Equal(v, []byte("status=placed epoch=2")) || rev > wm {
		return "", fmt.Errorf("post-failover follower read: %q rev=%d wm=%d", v, rev, wm)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "replication ok: %d orders shipped to %d replicas (health: lag 0 at lsn %d), %d follower reads at floor %d\n",
		orders, replicas, h.Replicas[0].AppliedLSN, served, floor)
	fmt.Fprintf(&b, "failover: %s promoted, epoch %d -> %d, fence %d -> %d, zombie write rejected\n",
		promoted.Name(), 1, m.Epoch, fence1, fence2)
	return b.String(), nil
}
