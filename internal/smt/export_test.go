package smt

// newSATChecker returns a Checker that decides every query through the
// SAT layer, the path solveLiterals takes a conjunction of comparisons
// around.
func newSATChecker() *Checker {
	c := NewChecker()
	c.core.forceSAT = true
	return c
}
