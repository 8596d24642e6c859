// Command benchdiff gates CI on the committed bench trajectory: it
// compares a freshly generated BENCH JSONL file against the committed
// baseline and exits nonzero when any measured point's architectural
// metric (ops/kinterval for cluster runs, ops/kacc otherwise) dropped by
// more than the threshold, or when a single-thread point's metric differs
// from the baseline at all (a rise reads "baseline stale: regenerate").
//
// Usage:
//
//	benchdiff [-threshold 0.25] BASELINE.json FRESH.json
package main

import (
	"flag"
	"fmt"
	"os"

	"rhtm/internal/benchdiff"
)

func main() {
	threshold := flag.Float64("threshold", 0.25, "tolerated fractional drop per multi-thread point (0.25 = 25%)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.25] BASELINE.json FRESH.json")
		os.Exit(2)
	}
	if *threshold <= 0 || *threshold >= 1 {
		fmt.Fprintf(os.Stderr, "benchdiff: -threshold must be in (0,1), got %g\n", *threshold)
		os.Exit(2)
	}
	base, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fresh, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(base) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: baseline %s has no rows\n", flag.Arg(0))
		os.Exit(2)
	}
	regs := benchdiff.Compare(base, fresh, *threshold)
	if len(regs) == 0 {
		fmt.Printf("benchdiff: %d baseline points, single-thread points exact, none regressed more than %.0f%%\n",
			len(base), 100**threshold)
		return
	}
	fmt.Fprintf(os.Stderr, "benchdiff: %d of %d points moved at one thread or regressed more than %.0f%%:\n",
		len(regs), len(base), 100**threshold)
	for _, rg := range regs {
		fmt.Fprintln(os.Stderr, " ", rg)
	}
	os.Exit(1)
}

func parseFile(path string) ([]benchdiff.Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: %w", err)
	}
	defer f.Close()
	return benchdiff.ParseRows(f)
}
