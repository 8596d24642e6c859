package main

import (
	"strings"
	"testing"
)

// TestQuickstartExample runs the scenario so the example cannot silently
// rot: run itself checks the counter and the conserved bank total.
func TestQuickstartExample(t *testing.T) {
	summary, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(summary, "all invariants hold: counter=2000, bank total=1600") {
		t.Fatalf("unexpected summary:\n%s", summary)
	}
}
