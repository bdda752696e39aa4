package pred

import (
	"circ/internal/cfa"
	"circ/internal/expr"
)

// EvalAtZero exposes the evaluated initial cube, nil when InitialCube
// falls back to the solver.
func (a *Abstractor) EvalAtZero(vars []string) *Cube { return a.evalAtZero(vars) }

// ObservePosts makes f see the formula of every post a memo miss builds
// (see postBuilt) and returns the func that stops it.
func ObservePosts(f func(c *Cube, e *cfa.Edge, ys []string, target *Cube, phi expr.ID)) (stop func()) {
	postBuilt = f
	return func() { postBuilt = func(*Cube, *cfa.Edge, []string, *Cube, expr.ID) {} }
}
