package kv_test

import (
	"testing"

	"rhtm"
	"rhtm/cluster"
	"rhtm/internal/enginetest/dbtest"
	"rhtm/kv"
	"rhtm/repl"
	"rhtm/store"
	"rhtm/wal"
)

// Replication rigs: a durable primary inside a repl.Group over
// crash-imageable MemStorage, with a hook growing same-shaped replicas —
// the DBReplication battery section drives follower-read staleness audits
// and kill-the-primary failover against them, reusing the recovery
// section's independent committed-prefix oracle for the promotion diff.

// localReplFactory rigs a Local primary (shards=0 selects the unsharded
// store) with replicas of the same shard geometry.
func localReplFactory(engineName string, shards, inject int) dbtest.ReplFactory {
	newStore := func(s *rhtm.System) (kv.Storer, func() error) {
		if shards == 0 {
			ss := store.New(s, store.Options{ArenaWords: 1 << 14})
			return ss, ss.Validate
		}
		sh := store.NewSharded(s, shards, store.Options{ArenaWords: 1 << 13})
		return sh, sh.Validate
	}
	return func(t *testing.T) *dbtest.ReplRig {
		stg := wal.NewMemStorage()
		dev, err := stg.Device("wal")
		if err != nil {
			t.Fatal(err)
		}
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
		st, _ := newStore(s)
		db, err := kv.OpenLocal(newEngine(t, s, engineName, inject), st, dev)
		if err != nil {
			t.Fatal(err)
		}
		g, err := repl.NewLocalGroup(db, dev)
		if err != nil {
			t.Fatal(err)
		}
		return &dbtest.ReplRig{
			DB:    db,
			Group: g,
			AddReplica: func() (*repl.Follower, func() error, error) {
				rs := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
				rst, validate := newStore(rs)
				f, err := g.AddLocalReplica(newEngine(t, rs, engineName, inject), rst)
				return f, validate, err
			},
			OracleNow: func() (map[string][]byte, error) {
				return localOracle(stg.CrashImage(stg.Appended()))
			},
		}
	}
}

// clusterReplFactory rigs a multi-System primary with same-sized replica
// clusters.
func clusterReplFactory(engineName string, systems, inject int) dbtest.ReplFactory {
	newC := func(t *testing.T) *cluster.Cluster {
		c, err := cluster.New(cluster.Config{
			Systems:    systems,
			ArenaWords: 1 << 13,
			NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
				return newEngine(t, s, engineName, inject), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return func(t *testing.T) *dbtest.ReplRig {
		stg := wal.NewMemStorage()
		c := newC(t)
		db, err := kv.OpenCluster(c, stg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := repl.NewClusterGroup(db, stg)
		if err != nil {
			t.Fatal(err)
		}
		return &dbtest.ReplRig{
			DB:    db,
			Group: g,
			AddReplica: func() (*repl.Follower, func() error, error) {
				rc := newC(t)
				f, err := g.AddClusterReplica(rc)
				return f, rc.Validate, err
			},
			OracleNow: func() (map[string][]byte, error) {
				return clusterOracle(stg.CrashImage(stg.Appended()), systems)
			},
		}
	}
}
