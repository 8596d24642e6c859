package kv

import "rhtm/cluster"

// Cluster returns the DB's cluster, for the tests that read its router,
// engines and protocol counters.
func (db *ClusterDB) Cluster() *cluster.Cluster { return db.c }
