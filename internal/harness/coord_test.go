package harness

import (
	"testing"
)

// TestSessionCacheRuns drives the session-cache scenario on both backends:
// lookups must hit, misses must trigger logins, and the virtual-time pump
// must actually expire leased sessions (the churn the scenario exists for).
func TestSessionCacheRuns(t *testing.T) {
	for _, spec := range []KVSpec{
		{Mix: "session", Records: 128, ValueBytes: 32, Shards: 4, TTL: 4, PumpEvery: 16},
		{Mix: "session", Records: 128, ValueBytes: 32, Systems: 3, TTL: 4, PumpEvery: 16},
	} {
		r, err := RunKV(spec, EngRH1Mix2, RunConfig{Threads: 4, OpsPerThread: 150, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		if r.Ops != 600 {
			t.Fatalf("%s: ops = %d, want 600", spec.Name(), r.Ops)
		}
		c := r.Counters
		if c["harness.logins"] == 0 || c["harness.hits"] == 0 {
			t.Fatalf("%s: no cache traffic: %s", spec.Name(), digest(c))
		}
		if c["harness.expired"] == 0 {
			t.Fatalf("%s: the expiry pump never reclaimed a session: %s", spec.Name(), digest(c))
		}
		if c["harness.watched_deletes"] == 0 {
			t.Fatalf("%s: the watcher saw no expiry deletes: %s", spec.Name(), digest(c))
		}
	}
}

// TestLockServiceMutualExclusion is the coordination acceptance criterion:
// on both backends, 4 workers hammering a small lock space — with crashes
// reclaimed only by lease expiry — must never produce two overlapping
// lease-valid holds of one lock. The audit runs inside RunKV; this test
// additionally requires that the scenario exercised every interesting
// path: contended acquisitions, crash-expiry reclaims, and watch-observed
// deletes.
func TestLockServiceMutualExclusion(t *testing.T) {
	for _, spec := range []KVSpec{
		{Mix: "lock", Records: 8, Shards: 4, TTL: 6, PumpEvery: 16},
		{Mix: "lock", Records: 8, Systems: 3, TTL: 6, PumpEvery: 16},
	} {
		r, err := RunKV(spec, EngRH1Mix2, RunConfig{Threads: 4, OpsPerThread: 120, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		if r.Ops != 480 {
			t.Fatalf("%s: ops = %d, want 480", spec.Name(), r.Ops)
		}
		c := r.Counters
		if c["harness.acquires"] == 0 || c["harness.contended"] == 0 {
			t.Fatalf("%s: lock space never contended: %s", spec.Name(), digest(c))
		}
		if c["harness.crashes"] == 0 || c["harness.expired"] == 0 {
			t.Fatalf("%s: crash-expiry path never exercised: %s", spec.Name(), digest(c))
		}
		if c["harness.watched_deletes"] == 0 {
			t.Fatalf("%s: the watcher saw no lock releases: %s", spec.Name(), digest(c))
		}
	}
}

// TestLockAuditCatchesOverlap sanity-checks the auditor itself: a
// fabricated overlapping pair must be rejected, adjacent intervals must
// pass — so a green mutual-exclusion run means the invariant held, not
// that the check is vacuous.
func TestLockAuditCatchesOverlap(t *testing.T) {
	var c holdLog
	c.record(1, holdInterval{token: 1, start: 10, deadline: 20, end: 15})
	c.record(1, holdInterval{token: 2, start: 15, deadline: 30, end: 22})
	if err := c.auditMutualExclusion(); err != nil {
		t.Fatalf("adjacent holds rejected: %v", err)
	}
	c.record(1, holdInterval{token: 3, start: 21, deadline: 40})
	if err := c.auditMutualExclusion(); err == nil {
		t.Fatal("overlapping holds (21 < 22) not detected")
	}
	// A crashed hold's validity ends at its lease deadline, not at release.
	var c2 holdLog
	c2.record(7, holdInterval{token: 1, start: 5, deadline: 9})
	c2.record(7, holdInterval{token: 2, start: 8, deadline: 20, end: 12})
	if err := c2.auditMutualExclusion(); err == nil {
		t.Fatal("acquire inside a crashed hold's lease window not detected")
	}
	// Same-tick sequential holds — released within the tie tick, then
	// re-acquired and crashed — are legal whatever order they were
	// recorded in: the tie-break must not fabricate an overlap.
	for _, order := range [][2]holdInterval{
		{{token: 1, start: 11, deadline: 17, end: 11}, {token: 2, start: 11, deadline: 15}},
		{{token: 2, start: 11, deadline: 15}, {token: 1, start: 11, deadline: 17, end: 11}},
	} {
		var c3 holdLog
		c3.record(3, order[0])
		c3.record(3, order[1])
		if err := c3.auditMutualExclusion(); err != nil {
			t.Fatalf("legal same-tick hold sequence rejected: %v", err)
		}
	}
	// But two tied holds that both extend past the tie tick cannot both be
	// lease-valid: one acquired while the other still held the key.
	var c4 holdLog
	c4.record(9, holdInterval{token: 1, start: 11, deadline: 15})
	c4.record(9, holdInterval{token: 2, start: 11, deadline: 17, end: 14})
	if err := c4.auditMutualExclusion(); err == nil {
		t.Fatal("two extending same-tick holds not detected")
	}
}
