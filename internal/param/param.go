// Package param implements Appendix A of the paper: counter-guided
// parameterized verification of finite-state threads (Algorithm 6). For a
// thread whose only local state is its control location, the counter
// abstraction (T,k) is model-checked directly; counterexamples no longer
// than k are genuine (they need at most k threads), longer ones refine the
// abstraction by incrementing k. Lemmas 1-2 guarantee termination and
// correctness (Theorem 3) for finite-state threads.
package param

import (
	"fmt"
	"sort"
	"strings"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/reach"
)

// Verdict is the analysis outcome.
type Verdict int

// Verdicts.
const (
	Unknown Verdict = iota
	Safe
	Unsafe
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "safe"
	case Unsafe:
		return "unsafe"
	}
	return "unknown"
}

// Options configures the checker.
type Options struct {
	// ValueBound wraps written values into [0, ValueBound) (default 8),
	// making the shared state finite.
	ValueBound int64
	// HavocDomain is the value domain of havoc edges (default {0,1}).
	HavocDomain []int64
	// MaxK bounds refinement (default 16).
	MaxK int
	// MaxStates bounds each model-checking run (default 2,000,000).
	MaxStates int
}

func (o Options) valueBound() int64 {
	if o.ValueBound > 0 {
		return o.ValueBound
	}
	return 8
}

func (o Options) havocDomain() []int64 {
	if len(o.HavocDomain) > 0 {
		return o.HavocDomain
	}
	return []int64{0, 1}
}

func (o Options) maxK() int {
	if o.MaxK > 0 {
		return o.MaxK
	}
	return 16
}

func (o Options) maxStates() int {
	if o.MaxStates > 0 {
		return o.MaxStates
	}
	return 2000000
}

// Step is one transition of the counter-abstracted program.
type Step struct {
	Loc        cfa.Loc // source location of the moving thread
	Edge       *cfa.Edge
	HavocValue int64
}

// Result is the analysis outcome with evidence.
type Result struct {
	Verdict Verdict
	// K is the counter parameter at termination.
	K int
	// Trace is the counterexample (Unsafe only).
	Trace []Step
	// NumStates is the size of the last exploration.
	NumStates int
	Reason    string
}

// Check runs Algorithm 6 for races on x over unboundedly many copies of
// the finite-state thread c. The thread must have no local variables (the
// appendix's "pc is the only local variable" assumption); Check rejects
// CFAs with locals.
func Check(c *cfa.CFA, x string, opts Options) (*Result, error) {
	if len(c.Locals) > 0 {
		return nil, fmt.Errorf("param: thread has local variables %v; Appendix A requires finite-state threads with pc as the only local", c.Locals)
	}
	if !c.IsGlobal(x) {
		return nil, fmt.Errorf("param: %q is not a global", x)
	}
	for k := 1; k <= opts.maxK(); k++ {
		trace, states, err := modelCheck(c, x, k, opts)
		if err != nil {
			return nil, err
		}
		if trace == nil {
			return &Result{Verdict: Safe, K: k, NumStates: states}, nil
		}
		// A counterexample of length m needs at most m threads away from
		// the initial location; if m <= k the counter abstraction was
		// exact along it (Lemma 2) and the trace is genuine.
		if len(trace) <= k {
			return &Result{Verdict: Unsafe, K: k, Trace: trace, NumStates: states}, nil
		}
	}
	return &Result{Verdict: Unknown, K: opts.maxK(), Reason: "refinement budget exhausted"}, nil
}

// cstate is a counter-abstracted configuration: shared valuation plus a
// counter per location.
type cstate struct {
	vars map[string]int64
	ctx  reach.Ctx
}

func (s *cstate) key() string {
	var b strings.Builder
	names := make([]string, 0, len(s.vars))
	for n := range s.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d;", n, s.vars[n])
	}
	b.WriteByte('|')
	b.WriteString(s.ctx.Key())
	return b.String()
}

func (s *cstate) clone() *cstate {
	out := &cstate{vars: make(map[string]int64, len(s.vars)), ctx: s.ctx.CloneCtx()}
	for k, v := range s.vars {
		out.vars[k] = v
	}
	return out
}

func wrap(v, m int64) int64 { return ((v % m) + m) % m }

// modelCheck explores (T,k) and returns a shortest race trace, or nil.
func modelCheck(c *cfa.CFA, x string, k int, opts Options) ([]Step, int, error) {
	init := &cstate{vars: make(map[string]int64), ctx: make(reach.Ctx, c.NumLocs())}
	for _, g := range c.Globals {
		init.vars[g] = 0
	}
	init.ctx[c.Entry] = reach.Omega

	type parent struct {
		key  string
		step Step
	}
	seen := map[string]parent{init.key(): {}}
	queue := []*cstate{init}
	n := 0
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		n++
		if n > opts.maxStates() {
			return nil, n, fmt.Errorf("param: state budget exceeded")
		}
		if isRace(c, s, x) {
			var rev []Step
			kk := s.key()
			for {
				p := seen[kk]
				if p.step.Edge == nil {
					break
				}
				rev = append(rev, p.step)
				kk = p.key
			}
			for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
				rev[l], rev[r] = rev[r], rev[l]
			}
			return rev, n, nil
		}
		for _, loc := range enabledLocs(c, s) {
			for _, e := range c.OutEdges(loc) {
				for _, succ := range apply(s, e, k, opts) {
					key := succ.st.key()
					if _, ok := seen[key]; ok {
						continue
					}
					seen[key] = parent{key: s.key(), step: succ.step}
					queue = append(queue, succ.st)
				}
			}
		}
	}
	return nil, n, nil
}

// enabledLocs returns the occupied locations whose threads may run,
// honouring atomic scheduling.
func enabledLocs(c *cfa.CFA, s *cstate) []cfa.Loc {
	for l := 0; l < c.NumLocs(); l++ {
		if c.IsAtomic(cfa.Loc(l)) && s.ctx.Occupied(acfa.Loc(l)) {
			return []cfa.Loc{cfa.Loc(l)}
		}
	}
	var out []cfa.Loc
	for l := 0; l < c.NumLocs(); l++ {
		if s.ctx.Occupied(acfa.Loc(l)) {
			out = append(out, cfa.Loc(l))
		}
	}
	return out
}

type succ struct {
	st   *cstate
	step Step
}

// apply executes edge e by one thread at e.Src.
func apply(s *cstate, e *cfa.Edge, k int, opts Options) []succ {
	move := func(st *cstate) {
		st.ctx = st.ctx.Move(acfa.Loc(e.Src), acfa.Loc(e.Dst), k)
	}
	switch e.Op.Kind {
	case cfa.OpAssume:
		ok, err := expr.EvalFormula(e.Op.Pred, s.vars)
		if err != nil || !ok {
			return nil
		}
		st := s.clone()
		move(st)
		return []succ{{st: st, step: Step{Loc: e.Src, Edge: e}}}
	case cfa.OpAssign:
		v, err := expr.EvalTerm(e.Op.RHS, s.vars)
		if err != nil {
			return nil
		}
		st := s.clone()
		st.vars[e.Op.LHS] = wrap(v, opts.valueBound())
		move(st)
		return []succ{{st: st, step: Step{Loc: e.Src, Edge: e}}}
	case cfa.OpHavoc:
		var out []succ
		for _, hv := range opts.havocDomain() {
			st := s.clone()
			st.vars[e.Op.LHS] = wrap(hv, opts.valueBound())
			move(st)
			out = append(out, succ{st: st, step: Step{Loc: e.Src, Edge: e, HavocValue: hv}})
		}
		return out
	}
	return nil
}

// isRace checks the race condition on x: no atomic location occupied and
// two distinct threads with enabled accesses, one of them a write.
func isRace(c *cfa.CFA, s *cstate, x string) bool {
	for l := 0; l < c.NumLocs(); l++ {
		if c.IsAtomic(cfa.Loc(l)) && s.ctx.Occupied(acfa.Loc(l)) {
			return false
		}
	}
	type cap struct{ write, access bool }
	var caps []cap
	var multi []bool
	for l := 0; l < c.NumLocs(); l++ {
		if !s.ctx.Occupied(acfa.Loc(l)) {
			continue
		}
		w, a := locAccess(c, cfa.Loc(l), s, x)
		if w || a {
			caps = append(caps, cap{write: w, access: a})
			multi = append(multi, s.ctx.AtLeastTwo(acfa.Loc(l)))
		}
	}
	for i, ci := range caps {
		if !ci.write {
			continue
		}
		if multi[i] {
			return true // two threads at the same writing location
		}
		for j, cj := range caps {
			if i != j && cj.access {
				return true
			}
		}
	}
	return false
}

// locAccess reports whether a thread at l has an enabled write/access of x.
func locAccess(c *cfa.CFA, l cfa.Loc, s *cstate, x string) (write, access bool) {
	for _, e := range c.OutEdges(l) {
		switch e.Op.Kind {
		case cfa.OpAssign:
			if e.Op.LHS == x {
				write, access = true, true
			}
			if expr.Mentions(e.Op.RHS, x) {
				access = true
			}
		case cfa.OpHavoc:
			if e.Op.LHS == x {
				write, access = true, true
			}
		case cfa.OpAssume:
			if expr.Mentions(e.Op.Pred, x) {
				if ok, err := expr.EvalFormula(e.Op.Pred, s.vars); err == nil && ok {
					access = true
				}
			}
		}
	}
	return
}
