package pred

// EvalAtZero exposes the evaluated initial cube, nil when InitialCube
// falls back to the solver.
func (a *Abstractor) EvalAtZero(vars []string) *Cube { return a.evalAtZero(vars) }
