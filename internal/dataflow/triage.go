package dataflow

import (
	"fmt"
	"sync"

	"circ/internal/cfa"
)

// Discharge reasons, as they appear in verdict provenance
// ("triage: read-only") and telemetry counter names.
const (
	// ReasonThreadLocal: no reachable edge of the thread template accesses
	// the global at all, so no copy of the thread can participate in a
	// race on it.
	ReasonThreadLocal = "thread-local"
	// ReasonReadOnly: the thread never writes the global. A race requires
	// at least one write, and in the symmetric-thread model every
	// potential writer runs this same template.
	ReasonReadOnly = "read-only"
	// ReasonAtomicCovered: every reachable access to the global sits on
	// an edge whose source location is atomic. An accessing thread
	// therefore occupies an atomic location, and the race definition
	// excludes states with any occupied atomic location.
	ReasonAtomicCovered = "atomic-covered"
	// ReasonFlagGuarded: every uncovered access to the global sits in a
	// region the flag-guard must-analysis proves is held under a
	// single-owner busy flag (acquired by an atomic test-and-set,
	// released only by its owner), so two template copies cannot
	// co-occupy the accessing locations. See flagguard.go.
	ReasonFlagGuarded = "flag-guarded"
)

// Discharge is a statically proved race-freedom verdict for one
// (thread, global) pair. It keeps the evidence rather than its text:
// most discharged pairs are counted and never explained, so Detail
// renders the text only when asked.
type Discharge struct {
	// Reason is one of the Reason* constants.
	Reason string

	thread, global string
	accesses       int           // reads (read-only), accesses (atomic-covered) or uncovered accesses (flag-guarded)
	sol            *flagSolution // flag-guarded only
}

// Detail is a one-line human rendering of the evidence.
func (d Discharge) Detail() string {
	switch d.Reason {
	case ReasonThreadLocal:
		return fmt.Sprintf("no reachable edge of %s accesses %s", d.thread, d.global)
	case ReasonReadOnly:
		return fmt.Sprintf("%s reads %s on %d edge(s) but never writes it", d.thread, d.global, d.accesses)
	case ReasonAtomicCovered:
		return fmt.Sprintf("all %d access(es) to %s leave atomic locations", d.accesses, d.global)
	case ReasonFlagGuarded:
		return fmt.Sprintf("%d uncovered access(es) to %s owned under busy flag %s (unlocked=%d, locked=%v)",
			d.accesses, d.global, d.sol.flag, d.sol.unlock, d.sol.acquireConsts)
	}
	return ""
}

// ThreadFacts holds the static facts of one thread template that triage
// reads: how often each variable is read, written, and accessed from a
// non-atomic location on the reachable edges, counted in one pass, and the
// flag-guard analysis, run on first need. None of them depends on the
// global being triaged, so a batch builds one ThreadFacts per thread and
// triages every global of that thread against it. A ThreadFacts is safe
// for concurrent use; it keeps its CFA and flag-guard solution alive, so
// scope it to the batch that built it.
type ThreadFacts struct {
	c      *cfa.CFA
	access map[string]accessCount

	guardOnce sync.Once
	guard     *FlagGuardResult
}

// accessCount counts one variable's accesses on reachable edges. An edge
// that both reads and writes the variable is one uncovered access.
type accessCount struct {
	reads, writes, uncovered int
}

// NewThreadFacts counts the accesses of every variable of c. Unreachable
// code (locations with no path from the entry) is ignored: accesses
// there cannot occur.
func NewThreadFacts(c *cfa.CFA) *ThreadFacts {
	f := &ThreadFacts{c: c, access: make(map[string]accessCount)}
	reach := c.ReachableLocs()
	for _, e := range c.Edges {
		if !reach[e.Src] {
			continue
		}
		uncovered := 0
		if !c.IsAtomic(e.Src) {
			uncovered = 1
		}
		w := e.Writes()
		if w != "" {
			n := f.access[w]
			n.writes++
			n.uncovered += uncovered
			f.access[w] = n
		}
		for r := range e.Reads() {
			n := f.access[r]
			n.reads++
			if r != w {
				n.uncovered += uncovered
			}
			f.access[r] = n
		}
	}
	return f
}

// flagGuard returns the flag-guard analysis of the thread, running it on
// the first call.
func (f *ThreadFacts) flagGuard() *FlagGuardResult {
	f.guardOnce.Do(func() { f.guard = FlagGuard(f.c) })
	return f.guard
}

// Triage attempts to discharge the race question for global g on the
// thread without running the inference engine. Each rule is sound under
// the engine's race definition (see the Reason* constants): a discharge
// means no reachable state of "unboundedly many copies of the thread" is
// a race state on g.
func (f *ThreadFacts) Triage(g string) (Discharge, bool) {
	n := f.access[g]
	switch {
	case n.reads == 0 && n.writes == 0:
		return Discharge{Reason: ReasonThreadLocal, thread: f.c.Name, global: g}, true
	case n.writes == 0:
		return Discharge{Reason: ReasonReadOnly, thread: f.c.Name, global: g, accesses: n.reads}, true
	case n.uncovered == 0:
		return Discharge{Reason: ReasonAtomicCovered, thread: f.c.Name, global: g, accesses: n.reads + n.writes}, true
	}
	// The syntactic rules failed: some uncovered write exists. Run the
	// flag-guard must-analysis before conceding the pair to the
	// inference engine.
	return f.flagGuard().Discharge(g)
}

// Triage is ThreadFacts.Triage for a single (thread, global) pair.
func Triage(c *cfa.CFA, g string) (Discharge, bool) {
	return NewThreadFacts(c).Triage(g)
}
