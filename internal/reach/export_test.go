package reach

import (
	"context"
	"fmt"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/pred"
)

// ExploreTraces runs one exploration as ReachAndBuild does and returns
// its result and error with traces to check and a check for them. The
// traces are the result's race traces, or, when the run stopped with an
// error, the trace to every state it discovered. check reports the
// first step of a trace that is not a successor of the state before it
// in the run's memoised lists, or that does not land on the state after
// it.
func ExploreTraces(ctx context.Context, C *cfa.CFA, A *acfa.ACFA, abs *pred.Abstractor, raceVar string, opts Options) (res *Result, traces []*Trace, check func(*Trace) error, err error) {
	e := newExplorer(C, A, abs, raceVar, opts)
	res, err = e.run(ctx)
	if err == nil {
		traces = res.Races
	} else {
		for i := range e.slots.n {
			traces = append(traces, e.buildTrace(i))
		}
	}
	return res, traces, e.checkSteps, err
}

// Step is one transition a run's merges took, between ARG raw ids.
type Step struct {
	From int
	Op   Op
	To   int
}

// ExploreSteps runs one exploration as ReachAndBuild does, with the
// covering check on or off, and returns its result and every step its
// merges took: each successor, in a memoised list, that a merge reached.
func ExploreSteps(ctx context.Context, C *cfa.CFA, A *acfa.ACFA, abs *pred.Abstractor, raceVar string, opts Options, cover bool) (*Result, []Step, error) {
	defer func(on bool) { covering = on }(covering)
	covering = cover
	e := newExplorer(C, A, abs, raceVar, opts)
	res, err := e.run(ctx)
	if err != nil {
		return nil, nil, err
	}
	var steps []Step
	for from := range e.memo {
		m := &e.memo[from]
		for _, l := range append([]succList{m.main}, m.env...) {
			for _, r := range l.succs {
				if r.id >= 0 {
					steps = append(steps, Step{from, r.op, r.id})
				}
			}
		}
	}
	return res, steps, nil
}

// Len returns the number of thread states the ARG holds; their raw ids
// are 0 up to it.
func (g *ARG) Len() int { return len(g.states) }

// checkSteps checks t against the run's ARG and memoised successor lists.
func (e *explorer) checkSteps(t *Trace) error {
	if len(t.States) != len(t.Steps)+1 {
		return fmt.Errorf("%d states for %d steps", len(t.States), len(t.Steps))
	}
	if id := e.rawID(t.States[0].TS); id != e.arg.entry {
		return fmt.Errorf("state 0 has raw id %d, want the entry %d", id, e.arg.entry)
	}
	for i, op := range t.Steps {
		from, to := t.States[i], t.States[i+1]
		id := e.rawID(from.TS)
		if id < 0 || id >= len(e.memo) {
			return fmt.Errorf("state %d, %s, was never expanded", i, from)
		}
		m := &e.memo[id]
		l, want := &m.main, from.Ctx
		if op.IsEnv() {
			if m.env == nil {
				return fmt.Errorf("state %d, %s, has no env lists for step %s", i, from, op)
			}
			l, want = &m.env[op.EnvEdge.Src], from.Ctx.Move(op.EnvEdge.Src, op.EnvEdge.Dst, e.opts.K)
		}
		found := false
		for _, r := range l.succs {
			found = found || r.op == op && r.ts.Loc == to.TS.Loc && r.ts.Cube.Equal(to.TS.Cube)
		}
		if !found {
			return fmt.Errorf("step %d, %s, is not a successor of %s landing on %s", i, op, from, to)
		}
		if to.Ctx.Key() != want.Key() {
			return fmt.Errorf("step %d, %s, lands on context %v, want %v", i, op, to.Ctx, want)
		}
	}
	return nil
}

// rawID returns the ARG raw id of thread state ts, or -1.
func (e *explorer) rawID(ts ThreadState) int {
	for _, id := range e.arg.stateLoc[threadKey{ts.Loc, ts.Cube.FormulaID()}] {
		if e.arg.states[id].Cube.Equal(ts.Cube) {
			return id
		}
	}
	return -1
}
