package main

import "testing"

// TestRunCounterBound: -k above circ.MaxK is a usage error reported
// before the daemon listens.
func TestRunCounterBound(t *testing.T) {
	if code := run([]string{"-quiet", "-addr", "127.0.0.1:0", "-k", "255"}); code != 3 {
		t.Fatalf("-k 255: exit = %d, want 3", code)
	}
}
