package reach

import (
	"context"
	"testing"
)

// maxAllocsPerState bounds the allocations one explored state costs on the
// test-and-set fixture: twice the 5.20 measured once posts came from the
// abstractor's memo and slots from chunks (a post map per run and a slot
// per state cost 7.53; string-built keys and per-successor context copies
// before that cost 45). The memo is warm after the first run, so what
// remains is per thread state, the ARG's interning and per-location
// region and the successor lists, plus the race traces and each run's
// tables and chunks.
const maxAllocsPerState = 2 * 5.20

// TestReachAllocsPerState guards the engine's per-state allocation cost.
// The solver's verdict cache and the abstractor's post memo stay warm
// across runs, so the count is the exploration's own.
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
