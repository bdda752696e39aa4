// Package refine implements the paper's Refine procedure: analysing an
// abstract counterexample from ReachAndBuild. It
//
//  1. assigns the trace's environment moves to individual context threads,
//     detecting when the counter parameter k was too small;
//  2. concretises each context thread's abstract (ACFA) path into a CFA
//     path, using the previous ARG of which the context model is the weak
//     bisimulation quotient;
//  3. builds the interleaved trace formula (Figure 5) in SSA form and
//     checks its satisfiability;
//  4. on unsatisfiability, mines new predicates from a minimal unsat core
//     (the BLAST-style substitute for the proof-based predicate discovery
//     of "Abstractions from Proofs").
package refine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/journal"
	"circ/internal/reach"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// Kind classifies the refinement outcome.
type Kind int

// Outcomes.
const (
	// Real: the counterexample is genuine; Interleaving is a feasible
	// concrete interleaved trace ending in a race.
	Real Kind = iota
	// NewPreds: the counterexample is spurious; Preds contains new
	// predicates ruling it out.
	NewPreds
	// IncrementK: the trace needs more context threads than the counter
	// tracks; retry with k+1.
	IncrementK
	// Stuck: the trace is spurious but no new predicates were found (the
	// checker must give up with "unknown").
	Stuck
)

func (k Kind) String() string {
	switch k {
	case Real:
		return "real"
	case NewPreds:
		return "new-predicates"
	case IncrementK:
		return "increment-k"
	case Stuck:
		return "stuck"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Input bundles what Refine needs.
type Input struct {
	C   *cfa.CFA
	A   *acfa.ACFA // current context model
	ARG *reach.ARG // ARG of which A is the quotient; nil when A is empty
	Mu  map[int]acfa.Loc
	// Trace is the abstract counterexample.
	Trace *reach.Trace
	// RaceVar is the variable the trace races on.
	RaceVar string
	// K and ExactSeed mirror the reachability options: with ExactSeed only
	// K context threads exist, bounding thread minting.
	K         int
	ExactSeed bool
	Chk       smt.Solver
	// Metrics, when non-nil, receives per-outcome refinement counters.
	Metrics *telemetry.Registry
	// Journal, when non-nil, receives one trace_analyzed event per call,
	// classifying this counterexample.
	Journal *journal.Stream
}

// ConcreteStep is one operation of the interleaved concrete trace;
// ThreadID 0 is the main thread, context threads count from 1.
type ConcreteStep struct {
	ThreadID int
	Edge     *cfa.Edge
}

// Interleaving is a concrete interleaved trace.
type Interleaving struct {
	Steps []ConcreteStep
}

func (iv *Interleaving) String() string {
	var b strings.Builder
	for _, s := range iv.Steps {
		fmt.Fprintf(&b, "T%d: %s\n", s.ThreadID, s.Edge.Op)
	}
	return b.String()
}

// Outcome is the refinement result.
type Outcome struct {
	Kind         Kind
	Preds        []expr.Expr   // NewPreds
	Interleaving *Interleaving // Real (feasible) and NewPreds (spurious)
	// TF is the SSA trace formula, one clause per concrete step (skipping
	// trivially-true clauses); Core indexes the minimal unsat subset when
	// the trace is spurious.
	TF   []expr.Expr
	Core []int
	// Witness is a satisfying SSA model of TF (Real only; may be nil when
	// the solver returned unknown). Render with FormatTraceWithWitness.
	Witness map[string]int64
}

// Refine analyses the abstract counterexample.
func Refine(in Input) (*Outcome, error) {
	start := time.Now()
	out, err := refine(in)
	in.Metrics.Histogram("refine.analyze").Since(start)
	switch {
	case err != nil:
		in.Metrics.Counter("refine.errors").Inc()
	case out != nil:
		in.Metrics.Counter("refine." + outcomeKey(out.Kind)).Inc()
		in.Metrics.Counter("refine.preds.mined").Add(int64(len(out.Preds)))
	}
	if in.Journal.Enabled() {
		e := journal.Event{Type: journal.EvTraceAnalyzed}
		if in.Trace != nil {
			e.TraceLen = len(in.Trace.Steps)
		}
		switch {
		case err != nil:
			e.Outcome = "error"
		case out != nil:
			e.Outcome = out.Kind.String()
			if out.Interleaving != nil {
				e.Steps = len(out.Interleaving.Steps)
			}
		}
		in.Journal.Emit(e)
	}
	return out, err
}

// outcomeKey is the metric-name suffix of a refinement outcome.
func outcomeKey(k Kind) string {
	switch k {
	case Real:
		return "real"
	case NewPreds:
		return "newpreds"
	case IncrementK:
		return "inck"
	}
	return "stuck"
}

func refine(in Input) (*Outcome, error) {
	threads, err := assignThreads(in)
	if err != nil {
		if err == errCounterTooLow {
			return &Outcome{Kind: IncrementK}, nil
		}
		return nil, err
	}
	iv, err := concretize(in, threads)
	if err != nil {
		return nil, err
	}
	clauses := TraceFormula(in.C, iv)
	conj := expr.Conj(clauses...)
	switch in.Chk.Sat(conj) {
	case smt.Sat, smt.Unknown:
		// Feasible (or not provably infeasible): report as a genuine race,
		// with a witness model over the SSA variables when available.
		_, model := in.Chk.SatModel(conj)
		return &Outcome{Kind: Real, Interleaving: iv, TF: clauses, Witness: model}, nil
	}
	core, _ := in.Chk.UnsatCore(clauses)
	preds := minePredicates(clauses, core)
	if len(preds) == 0 {
		return &Outcome{Kind: Stuck, Interleaving: iv, TF: clauses, Core: core}, nil
	}
	return &Outcome{Kind: NewPreds, Preds: preds, Interleaving: iv, TF: clauses, Core: core}, nil
}

var errCounterTooLow = fmt.Errorf("refine: counter parameter too low")

// ctxThread tracks one context thread's abstract path through A.
type ctxThread struct {
	id       int // 1-based
	loc      acfa.Loc
	path     []*acfa.Edge
	stepIdx  []int // index in the abstract trace of each path element
	needGoal bool  // must end at a CFA location writing RaceVar
}

// assignThreads walks the abstract trace and attributes each environment
// move to a specific context thread, minting new threads at the ACFA entry
// as needed (possible because the entry counter is omega; with ExactSeed
// minting is limited to K threads).
func assignThreads(in Input) ([]*ctxThread, error) {
	var threads []*ctxThread
	mint := func() (*ctxThread, error) {
		if in.ExactSeed && len(threads) >= in.K {
			return nil, errCounterTooLow
		}
		t := &ctxThread{id: len(threads) + 1, loc: in.A.Entry}
		threads = append(threads, t)
		return t, nil
	}
	for i, op := range in.Trace.Steps {
		if !op.IsEnv() {
			continue
		}
		e := op.EnvEdge
		var chosen *ctxThread
		for _, t := range threads {
			if t.loc == e.Src {
				chosen = t
				break
			}
		}
		if chosen == nil {
			if e.Src != in.A.Entry {
				// The counter allowed a move no tracked thread can make:
				// an omega counter at a non-entry location was drained
				// further than the threads we materialised.
				return nil, errCounterTooLow
			}
			t, err := mint()
			if err != nil {
				return nil, err
			}
			chosen = t
		}
		chosen.loc = e.Dst
		chosen.path = append(chosen.path, e)
		chosen.stepIdx = append(chosen.stepIdx, i)
	}
	// Decide which threads must end write-capable, from the final state.
	final := in.Trace.States[len(in.Trace.States)-1]
	mainLoc := final.TS.Loc
	mainAccesses := in.C.WritesVarAt(mainLoc, in.RaceVar) || in.C.ReadsVarAt(mainLoc, in.RaceVar)
	need := 2
	if mainAccesses {
		need = 1
	}
	for _, t := range threads {
		if need == 0 {
			break
		}
		if in.A.WritesVarAt(t.loc, in.RaceVar) {
			t.needGoal = true
			need--
		}
	}
	// Remaining writers must be freshly minted threads sitting at entry.
	for need > 0 {
		if !in.A.WritesVarAt(in.A.Entry, in.RaceVar) {
			// The abstract race relied on phantom omega occupancy: a
			// saturated counter kept a location "occupied" after the last
			// tracked thread left it. A larger k delays saturation and
			// either realises the race with real threads or removes it.
			return nil, errCounterTooLow
		}
		t, err := mint()
		if err != nil {
			return nil, err
		}
		t.needGoal = true
		need--
	}
	return threads, nil
}

// segment is the concrete realisation of one abstract step: zero or more
// tau operations followed (except for trailing goal segments) by the
// crossing operation.
type segment []*cfa.Edge

// concretize realises every context thread's abstract path as a CFA path
// through the previous ARG and splices the segments into the main thread's
// operations at the abstract steps' positions.
func concretize(in Input, threads []*ctxThread) (*Interleaving, error) {
	segments := make(map[int][]segment) // thread id -> per-step segments
	trailing := make(map[int]segment)   // thread id -> goal-reaching tail
	for _, t := range threads {
		segs, tail, err := realizePath(in, t)
		if err != nil {
			return nil, err
		}
		segments[t.id] = segs
		trailing[t.id] = tail
	}
	iv := &Interleaving{}
	envSeen := make(map[int]int) // thread id -> next path index
	for i, op := range in.Trace.Steps {
		if !op.IsEnv() {
			iv.Steps = append(iv.Steps, ConcreteStep{ThreadID: 0, Edge: op.MainEdge})
			continue
		}
		// Find which thread owns this step.
		owner := -1
		var pathIdx int
		for _, t := range threads {
			for j, si := range t.stepIdx {
				if si == i {
					owner = t.id
					pathIdx = j
					break
				}
			}
			if owner != -1 {
				break
			}
		}
		if owner == -1 {
			return nil, fmt.Errorf("refine: unattributed environment step %d", i)
		}
		_ = pathIdx
		next := envSeen[owner]
		envSeen[owner] = next + 1
		for _, e := range segments[owner][next] {
			iv.Steps = append(iv.Steps, ConcreteStep{ThreadID: owner, Edge: e})
		}
	}
	// Trailing tau segments that position racing threads on their access
	// locations.
	ids := make([]int, 0, len(trailing))
	for id := range trailing {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		for _, e := range trailing[id] {
			iv.Steps = append(iv.Steps, ConcreteStep{ThreadID: id, Edge: e})
		}
	}
	return iv, nil
}

// realizePath finds a concrete CFA path through the previous ARG whose
// class projection follows the thread's abstract path, split into
// per-abstract-step segments, plus a trailing tau segment satisfying the
// thread's goal (ending at a location that writes RaceVar) when required.
func realizePath(in Input, t *ctxThread) ([]segment, segment, error) {
	if in.ARG == nil {
		// Empty context: threads cannot move; only a goal at the entry is
		// realisable.
		if len(t.path) > 0 {
			return nil, nil, fmt.Errorf("refine: context moves with empty ARG")
		}
		if t.needGoal && !in.C.WritesVarAt(in.C.Entry, in.RaceVar) {
			return nil, nil, fmt.Errorf("refine: goal unreachable in empty context")
		}
		return nil, nil, nil
	}
	start := visit{state: in.ARG.EntryState()}
	startClass, ok := in.Mu[in.ARG.Find(start.state)]
	if !ok || startClass != in.A.Entry {
		return nil, nil, fmt.Errorf("refine: ARG entry not mapped to ACFA entry")
	}
	goalMet := func(v *visit) bool {
		if v.i != len(t.path) {
			return false
		}
		st := in.ARG.State(v.state)
		if !t.needGoal {
			// Resting position between/after moves must respect the
			// abstract location's atomicity (a thread parked inside an
			// atomic section would invalidate the interleaving's
			// scheduling).
			return len(t.path) == 0 || in.C.IsAtomic(st.Loc) == in.A.IsAtomic(t.path[len(t.path)-1].Dst)
		}
		// A race participant must sit at a non-atomic location with the
		// racing write enabled (a race state has no thread in an atomic
		// section).
		return !in.C.IsAtomic(st.Loc) && in.C.WritesVarAt(st.Loc, in.RaceVar)
	}
	// A BFS node is identified by its thread state and progress.
	type visitKey struct{ state, i int }
	seen := map[visitKey]bool{{start.state, 0}: true}
	queue := []*visit{&start}
	push := func(v *visit) {
		k := visitKey{v.state, v.i}
		if seen[k] {
			return
		}
		seen[k] = true
		queue = append(queue, v)
	}
	var goal *visit
	for len(queue) > 0 && goal == nil {
		v := queue[0]
		queue = queue[1:]
		if goalMet(v) {
			goal = v
			break
		}
		for _, tr := range in.ARG.OpTransitionsFrom(v.state) {
			w := tr.Edge.Op.WritesVar()
			wGlobal := w != "" && in.C.IsGlobal(w)
			// tau move: writes no global. Weak-transition semantics places
			// no class constraint on intermediate states (tau* may pass
			// through other classes, e.g. straight through an atomic
			// block).
			if !wGlobal {
				push(&visit{state: tr.Dst, i: v.i, parent: v, edge: tr.Edge})
			}
			// Consuming the next abstract edge: the op's written global
			// must be covered by the edge's havoc set and the landing
			// location's atomicity must match the abstract target's (the
			// thread rests there until its next abstract move, so a
			// mismatch would break the interleaving's scheduling).
			if v.i < len(t.path) && havocAllows(t.path[v.i], w, wGlobal) {
				if in.C.IsAtomic(in.ARG.State(tr.Dst).Loc) == in.A.IsAtomic(t.path[v.i].Dst) {
					push(&visit{state: tr.Dst, i: v.i + 1, parent: v, edge: tr.Edge, boundary: true})
				}
			}
		}
	}
	if goal == nil {
		return nil, nil, fmt.Errorf("refine: could not realise abstract path (len %d, goal=%t)", len(t.path), t.needGoal)
	}
	// Reconstruct segments: ops up to and including each boundary edge.
	var ops []*visit
	for v := goal; v.parent != nil; v = v.parent {
		ops = append(ops, v)
	}
	// Reverse.
	for l, r := 0, len(ops)-1; l < r; l, r = l+1, r-1 {
		ops[l], ops[r] = ops[r], ops[l]
	}
	segs := make([]segment, len(t.path))
	var cur segment
	idx := 0
	var tail segment
	for _, v := range ops {
		cur = append(cur, v.edge)
		if v.boundary {
			segs[idx] = cur
			idx++
			cur = nil
		}
	}
	tail = cur
	if idx != len(t.path) {
		return nil, nil, fmt.Errorf("refine: segment reconstruction mismatch")
	}
	return segs, tail, nil
}

// visit is a BFS node of the path realisation: an ARG thread state (its
// raw id) plus the number of abstract edges consumed so far. boundary
// marks that the incoming edge consumed abstract step i-1.
type visit struct {
	state    int
	i        int
	parent   *visit
	edge     *cfa.Edge
	boundary bool
}

// havocAllows reports whether abstract edge ae permits an operation
// writing w (wGlobal indicates whether w is shared).
func havocAllows(ae *acfa.Edge, w string, wGlobal bool) bool {
	if !wGlobal {
		return true
	}
	for _, v := range ae.Havoc {
		if v == w {
			return true
		}
	}
	return false
}
