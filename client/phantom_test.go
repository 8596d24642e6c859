package client_test

import (
	"testing"

	"rhtm/internal/enginetest/dbtest"
)

// TestNetScanPhantomProtection runs the battery's phantom section over the
// wire with TL2 on both backends. TestNetDBConformance's wire rigs put TL2
// only over kv.Local; this adds TL2, with no injected aborts, over a
// two-System cluster.
func TestNetScanPhantomProtection(t *testing.T) {
	t.Run("Local", func(t *testing.T) { dbtest.RunPhantom(t, netLocalFactory("TL2", 2, 0)) })
	t.Run("Cluster2", func(t *testing.T) { dbtest.RunPhantom(t, netClusterFactory("TL2", 2, 0)) })
}
