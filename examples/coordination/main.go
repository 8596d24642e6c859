// coordination builds a miniature control plane on the kv.DB coordination
// surface: candidates campaign for leadership with a create-only
// conditional write guarded by a lease (PutIf rev 0 + WithLease), the
// winner publishes monotonically-versioned config under its lease, a
// watcher follows the config stream, and leader crashes are simulated by
// letting the lease lapse on the virtual clock — expiry deletes the leader
// key and the config atomically, and the next campaign round elects a
// successor. Every acquisition takes a fencing token (the leader key's
// revision), which must grow strictly across reigns: the classic guard
// against a deposed leader's late writes.
//
// The same program runs unchanged on the cluster backend — swap NewLocal
// for kv.NewCluster(c), with c from cluster.New, and elections, leases and
// watches ride two-phase commit across share-nothing Systems.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"

	"rhtm"
	"rhtm/kv"
	"rhtm/store"
)

const (
	candidates = 4
	reigns     = 6
	leaseTTL   = 10
)

var (
	leaderKey = []byte("election/leader")
	configKey = []byte("config/active")
)

func main() {
	summary, err := run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(summary)
}

// run executes the scenario and returns a human-readable summary; the smoke
// test drives it directly.
func run() (string, error) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())
	sh := store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13})
	clock := kv.NewManualClock()
	db := kv.NewLocal(eng, sh, kv.WithClock(clock))

	// The config watcher: follows every published config version.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := db.Watch(ctx, []byte("config/"), 0)
	if err != nil {
		return "", err
	}
	type publication struct {
		value []byte
		rev   kv.Revision
	}
	watched := make(chan publication, reigns*2)
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for ev := range events {
			if ev.Kind == kv.EventPut {
				watched <- publication{value: ev.Value, rev: ev.Rev}
			}
		}
	}()

	var lastFence kv.Revision
	elected := make([]int, 0, reigns)
	for reign := 0; reign < reigns; reign++ {
		// Campaign: every candidate races the create-only conditional
		// write; exactly one wins.
		var leader int
		var lease kv.LeaseID
		won := false
		for id := 0; id < candidates; id++ {
			l, err := db.Grant(leaseTTL)
			if err != nil {
				return "", err
			}
			err = db.PutIf(leaderKey, []byte(fmt.Sprintf("candidate-%d", id)), 0, kv.WithLease(l))
			switch {
			case err == nil:
				if won {
					return "", fmt.Errorf("reign %d: two winners", reign)
				}
				won, leader, lease = true, id, l
			case errors.Is(err, kv.ErrRevisionMismatch):
				if err := db.Revoke(l); err != nil {
					return "", err
				}
			default:
				return "", err
			}
		}
		if !won {
			return "", fmt.Errorf("reign %d: nobody won the election", reign)
		}
		elected = append(elected, leader)

		// Fencing: the leader key's revision must grow strictly across
		// reigns — a deposed leader can prove staleness by its token.
		_, fence, err := db.GetRev(leaderKey)
		if err != nil {
			return "", err
		}
		if fence <= lastFence {
			return "", fmt.Errorf("reign %d: fencing token %d not past %d", reign, fence, lastFence)
		}
		lastFence = fence

		// The leader publishes config under its lease: leader death revokes
		// the config with the leadership, atomically.
		cfg := []byte(fmt.Sprintf("epoch=%d leader=%d", reign, leader))
		if err := db.Put(configKey, cfg, kv.WithLease(lease)); err != nil {
			return "", err
		}

		if reign%2 == 0 {
			// Clean handover: resign by revoking the lease.
			if err := db.Revoke(lease); err != nil {
				return "", err
			}
		} else {
			// Crash: stop keeping alive; the lease lapses on the clock and
			// expiry reclaims leadership and config together.
			clock.Advance(leaseTTL + 1)
			if _, err := db.ExpireLeases(); err != nil {
				return "", err
			}
		}
		// Either way the throne and the config are vacant again.
		if _, err := db.Get(leaderKey); !errors.Is(err, kv.ErrNotFound) {
			return "", fmt.Errorf("reign %d: leader key survived the handover: %v", reign, err)
		}
		if _, err := db.Get(configKey); !errors.Is(err, kv.ErrNotFound) {
			return "", fmt.Errorf("reign %d: config outlived its leader: %v", reign, err)
		}
	}

	// The watcher saw every reign's config, in fencing order.
	var pubs []publication
	for len(pubs) < reigns {
		select {
		case p := <-watched:
			pubs = append(pubs, p)
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	for i := 1; i < len(pubs); i++ {
		if pubs[i].rev <= pubs[i-1].rev {
			return "", fmt.Errorf("config stream out of order: %d then %d", pubs[i-1].rev, pubs[i].rev)
		}
	}
	for i, p := range pubs {
		if !bytes.Contains(p.value, []byte(fmt.Sprintf("epoch=%d ", i))) {
			return "", fmt.Errorf("publication %d carries %q", i, p.value)
		}
	}
	// Quiesce the watch hub before raw-memory validation and the engine
	// snapshot: its poller thread must be outside Atomic.
	cancel()
	<-watcherDone
	db.WaitWatchIdle()
	if err := sh.Validate(); err != nil {
		return "", err
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "coordination ok: %d reigns (leaders %v), %d config versions watched, final fence %d\n",
		reigns, elected, len(pubs), lastFence)
	fmt.Fprintf(&b, "engine %s: %s\n", eng.Name(), eng.Snapshot())
	return b.String(), nil
}
