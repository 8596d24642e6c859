package repl_test

import (
	"fmt"
	"reflect"
	"testing"

	"rhtm"
	"rhtm/cluster"
	"rhtm/kv"
	"rhtm/repl"
	"rhtm/store"
	"rhtm/wal"
)

// TestRefusalsRegisterNothing: a replica or a promotion that does not fit
// the group's streams is refused with an error and leaves the group as it
// was — the same Status rows and the same Membership — and the primary
// keeps committing and replicating. The replicas refused are a single
// System for a cluster, a cluster for a single System and a cluster of
// another size; the promotions, a DB that already owns a log and a cluster
// handed too few devices.
func TestRefusalsRegisterNothing(t *testing.T) {
	const systems = 2
	cdb, stg := newClusterPrimary(t, systems)
	cg, err := repl.NewClusterGroup(cdb, stg)
	if err != nil {
		t.Fatal(err)
	}
	defer cg.Close()
	cf := newClusterReplica(t, cg, systems)

	ldb, _, dev := newLocalPrimary(t)
	lg, err := repl.NewLocalGroup(ldb, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	lf := newLocalReplica(t, lg)

	// Devices of the cluster's streams, in the order Promote takes them.
	var devs []wal.Device
	for i := 0; i <= systems; i++ {
		name := "coord"
		if i < systems {
			name = fmt.Sprintf("sys-%02d", i)
		}
		d, err := stg.Device(name)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
	}
	newCluster := func(n int) *cluster.Cluster {
		c, err := cluster.New(cluster.Config{
			Systems:    n,
			ArenaWords: 1 << 13,
			NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
				return rhtm.NewTL2(s), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	newLocalSide := func() (rhtm.Engine, *store.Store) {
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
		return rhtm.NewTL2(s), store.New(s, store.Options{ArenaWords: 1 << 14})
	}

	write := func(i int) {
		t.Helper()
		k, v := []byte(fmt.Sprintf("k-%d", i)), []byte(fmt.Sprintf("v-%d", i))
		for _, db := range []kv.DB{cdb, ldb} {
			if err := db.Put(k, v); err != nil {
				t.Fatalf("Put %s: %v", k, err)
			}
		}
		for _, f := range []*repl.Follower{cf, lf} {
			if err := f.WaitIdle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		write(i)
	}

	cases := []struct {
		name string
		g    *repl.Group
		run  func() error
	}{
		{"AddLocalReplica on a cluster group", cg, func() error {
			eng, st := newLocalSide()
			_, err := cg.AddLocalReplica(eng, st)
			return err
		}},
		{"AddClusterReplica on a local group", lg, func() error {
			_, err := lg.AddClusterReplica(newCluster(systems))
			return err
		}},
		{"AddClusterReplica of another size", cg, func() error {
			_, err := cg.AddClusterReplica(newCluster(systems + 1))
			return err
		}},
		{"Promote of a DB that owns a log", cg, func() error {
			return cdb.Promote(devs, 2, nil)
		}},
		{"cluster Promote given too few devices", cg, func() error {
			return cf.DB().(*kv.ClusterDB).Promote(devs[:systems], 2, nil)
		}},
	}
	for i, tc := range cases {
		status, members := tc.g.Status(), tc.g.Membership()
		if err := tc.run(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if got := tc.g.Status(); !reflect.DeepEqual(got, status) {
			t.Errorf("%s: Status %+v, was %+v", tc.name, got, status)
		}
		if got := tc.g.Membership(); !reflect.DeepEqual(got, members) {
			t.Errorf("%s: Membership %+v, was %+v", tc.name, got, members)
		}
		write(100 + i)
	}
	for _, f := range []*repl.Follower{cf, lf} {
		v, _, _, err := f.ReadAt([]byte("k-104"), 0)
		if err != nil || string(v) != "v-104" {
			t.Fatalf("%s after the refusals: %q, %v", f.Name(), v, err)
		}
	}
}
