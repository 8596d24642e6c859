package main

import "testing"

func TestParseThreads(t *testing.T) {
	got, err := parseInts("1, 2,4", "thread count", 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("parseThreads = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseThreads = %v, want %v", got, want)
		}
	}
}

func TestParseThreadsRejectsBadInput(t *testing.T) {
	for _, in := range []string{"", "a", "0", "-3", "1,,2"} {
		if _, err := parseInts(in, "thread count", 1, 1<<20); err == nil {
			t.Errorf("parseThreads(%q) accepted", in)
		}
	}
}

func TestParsePercents(t *testing.T) {
	got, err := parseInts("0, 10,100", "percentage", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 10, 100}
	if len(got) != len(want) {
		t.Fatalf("parsePercents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsePercents = %v, want %v", got, want)
		}
	}
	for _, in := range []string{"", "x", "-1", "101", "5,,9"} {
		if _, err := parseInts(in, "percentage", 0, 100); err == nil {
			t.Errorf("parsePercents(%q) accepted", in)
		}
	}
}
