package reach

import (
	"context"
	"testing"
)

// maxAllocsPerState bounds the allocations one explored state costs on the
// test-and-set fixture: twice the 12.15 measured once state identity
// became value-keyed (string-built keys and per-successor context copies
// cost 45). Most of what remains is one slot per state, the ARG's
// per-location region, the race traces and the abstractor's solver
// sessions.
const maxAllocsPerState = 2 * 12.15

// TestReachAllocsPerState guards the engine's per-state allocation cost.
// The solver's verdict cache stays warm across runs, so the count is the
// exploration's own.
func TestReachAllocsPerState(t *testing.T) {
	f := tasFixture(t)
	states := f.run(t, nil).NumStates
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReachAndBuild(context.Background(), f.c, f.a, f.abs, "x", Options{K: 2}); err != nil {
			t.Fatal(err)
		}
	})
	perState := allocs / float64(states)
	t.Logf("%d states, %.0f allocs per run, %.2f per state", states, allocs, perState)
	if perState > maxAllocsPerState {
		t.Fatalf("%.2f allocations per explored state, want at most %v", perState, maxAllocsPerState)
	}
}
