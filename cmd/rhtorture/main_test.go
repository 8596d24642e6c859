package main

import (
	"testing"
	"time"

	"rhtm/internal/harness"
)

// TestTortureGames runs the three invariant games briefly on the paper's
// full protocol stack and on the software baseline, with the HTM squeezed
// so RH1 keeps bouncing between its protocol levels: conservation, the
// snapshot game and the counter must all hold, and every game must have
// committed work.
func TestTortureGames(t *testing.T) {
	for _, eng := range []string{harness.EngRH1Mix2, harness.EngTL2} {
		t.Run(eng, func(t *testing.T) {
			st, err := torture(eng, 4, 200*time.Millisecond, 8, 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			if st.Commits() == 0 {
				t.Fatalf("no transaction committed: %s", st)
			}
		})
	}
	if _, err := torture("no such engine", 1, time.Millisecond, 0, 0, 1); err == nil {
		t.Fatal("unknown engine accepted")
	}
}
