package main

import (
	"strings"
	"testing"
)

// TestFallbackTourExample walks the four stages so the example cannot
// silently rot: each stage checks itself that the intended protocol level
// carried its transactions.
func TestFallbackTourExample(t *testing.T) {
	summary, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stage 1:", "stage 2:", "stage 3:", "stage 4:",
		"all four protocol levels exercised and verified"} {
		if !strings.Contains(summary, want) {
			t.Fatalf("summary missing %q:\n%s", want, summary)
		}
	}
}
