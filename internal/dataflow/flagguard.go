package dataflow

import (
	"fmt"
	"sort"

	"circ/internal/cfa"
	"circ/internal/expr"
)

// Flag-guarded exclusion: a forward must-analysis over the product of the
// constant/copy lattice (interference-aware variant) and a per-flag
// ownership status. It proves the busy-flag idiom the paper's benchmarks
// are built from:
//
//	atomic { old = flag; if (flag == U) { flag = A; } }
//	if (old == U) { ...guarded region...; flag = U; }
//
// For a candidate flag f with "unlocked" value U the analysis classifies
// every write to f as an acquire (an atomic test-and-set: the write of a
// locked value A != U happens from an atomic location where the fact
// f == U provably holds), an owner re-write (a locked value written while
// the thread provably owns the flag), or a release (f := U, which the
// protocol only permits while owning the flag). Any other write — a
// havoc, a non-constant right-hand side, or a release by a non-owner —
// disqualifies f.
//
// Soundness rests on the invariant "f == U implies no thread owns f":
// an acquire atomically observes f == U (so no owner exists) and
// installs a locked value; owner re-writes keep the flag locked; the
// unique owner is the only thread that may write U back. A blind write
// of a locked value by a non-owner cannot release anyone else's
// ownership, so it is tolerated without conferring ownership. Hence two
// threads can never simultaneously be at locations whose must-status is
// "owns f", and accesses confined to such locations cannot race.
//
// The value component differs from plain constant propagation in one way:
// facts about globals (and copies of globals) are killed on every edge
// whose destination is non-atomic, because at a non-atomic location other
// threads run and may rewrite any global. Facts about locals survive.
//
// Ownership is path-sensitive at joins: merging an "owns" branch with a
// "does not own" branch synthesizes conditional ownership Cond(w = a) when
// a local witness w provably equals a on the owning side and provably
// differs from a on the other (the "old" variable of the test-and-set
// idiom). A later assume that decides w against a decides ownership.

// ownStatus is the must-ownership of the candidate flag at a location.
type ownStatus int8

const (
	// ownNo: on every path here the thread does not own the flag.
	ownNo ownStatus = iota
	// ownOwn: on every path here the thread owns the flag.
	ownOwn
	// ownCond: ownership is equivalent to a witness equality (see
	// condPair); holds on every path here.
	ownCond
	// ownTop: ownership unknown.
	ownTop
)

// condPair is one conditional-ownership witness: the thread owns the
// flag iff local variable w (by index) equals a.
type condPair struct {
	w int
	a int64
}

// guardFact is the product fact: interference-scrubbed values plus
// flag-ownership. A nil vals slice is the lattice bottom (unreached).
type guardFact struct {
	vals  []Value
	own   ownStatus
	pairs []condPair // ownCond only, sorted by (w, a)
}

type flagProblem struct {
	cp       *constProblem
	c        *cfa.CFA
	flag     string
	flagIdx  int
	unlock   int64
	isGlobal []bool // per variable index

	// Filled in during the solve.
	invalid      bool
	invalidWhy   string
	acquireConst map[int64]bool // locked values installed by acquires
}

func (p *flagProblem) Bottom() guardFact { return guardFact{} }

// Boundary: all values unknown, and the thread does not own the flag —
// ownership only ever originates in an acquire it performs itself.
func (p *flagProblem) Boundary() guardFact {
	return guardFact{vals: make([]Value, len(p.cp.vars.names)), own: ownNo}
}

func (p *flagProblem) Join(dst, src guardFact) (guardFact, bool) {
	if src.vals == nil {
		return dst, false
	}
	if dst.vals == nil {
		out := guardFact{
			vals:  append([]Value(nil), src.vals...),
			own:   src.own,
			pairs: append([]condPair(nil), src.pairs...),
		}
		return out, true
	}
	changed := false
	// Ownership joins first: Cond synthesis needs each side's value
	// facts before they are merged.
	own, pairs := p.joinOwn(dst, src)
	if own != dst.own || !pairsEq(pairs, dst.pairs) {
		dst.own, dst.pairs = own, pairs
		changed = true
	}
	for i := range dst.vals {
		j := joinVal(dst.vals[i], src.vals[i])
		if !j.eq(dst.vals[i]) {
			dst.vals[i] = j
			changed = true
		}
	}
	return dst, changed
}

func (p *flagProblem) joinOwn(dst, src guardFact) (ownStatus, []condPair) {
	a, b := dst.own, src.own
	switch {
	case a == b && a != ownCond:
		return a, nil
	case a == ownCond && b == ownCond:
		return condOrTop(intersectPairs(dst.pairs, src.pairs))
	case a == ownTop || b == ownTop:
		return ownTop, nil
	case (a == ownOwn && b == ownNo) || (a == ownNo && b == ownOwn):
		ownVals, noVals := dst.vals, src.vals
		if a == ownNo {
			ownVals, noVals = src.vals, dst.vals
		}
		return condOrTop(p.synthPairs(ownVals, noVals))
	default: // Cond against Own or No: keep the pairs the plain side supports.
		condSide, other := dst, src
		if b == ownCond {
			condSide, other = src, dst
		}
		var keep []condPair
		for _, pr := range condSide.pairs {
			switch other.own {
			case ownOwn:
				if c, ok := p.constIdx(other.vals, pr.w); ok && c == pr.a {
					keep = append(keep, pr)
				}
			case ownNo:
				if p.neIdx(other.vals, pr.w, pr.a) {
					keep = append(keep, pr)
				}
			}
		}
		return condOrTop(keep)
	}
}

func condOrTop(pairs []condPair) (ownStatus, []condPair) {
	if len(pairs) == 0 {
		return ownTop, nil
	}
	return ownCond, pairs
}

// synthPairs finds conditional-ownership witnesses: locals that provably
// equal some a on the owning side and provably differ from a on the
// non-owning side. Every path into the join then satisfies
// "owns iff w == a".
func (p *flagProblem) synthPairs(ownVals, noVals []Value) []condPair {
	var out []condPair
	for w := range ownVals {
		if p.isGlobal[w] {
			continue // witnesses must be interference-free
		}
		if a, ok := p.constIdx(ownVals, w); ok && p.neIdx(noVals, w, a) {
			out = append(out, condPair{w: w, a: a})
		}
	}
	return out
}

// constIdx resolves variable index i to a must-constant, following one
// copy link.
func (p *flagProblem) constIdx(vals []Value, i int) (int64, bool) {
	v := vals[i]
	if v.Kind == valCopy {
		v = vals[v.Src]
	}
	return v.IsConst()
}

// neIdx reports whether variable index i provably differs from a.
func (p *flagProblem) neIdx(vals []Value, i int, a int64) bool {
	v := vals[i]
	if v.Kind == valCopy {
		v = vals[v.Src]
	}
	switch v.Kind {
	case valConst:
		return v.N != a
	case valNe:
		return v.N == a
	}
	return false
}

func pairsEq(a, b []condPair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intersectPairs(a, b []condPair) []condPair {
	var out []condPair
	for _, pa := range a {
		for _, pb := range b {
			if pa == pb {
				out = append(out, pa)
				break
			}
		}
	}
	return out
}

func dropPairs(pairs []condPair, w int) []condPair {
	var out []condPair
	for _, pr := range pairs {
		if pr.w != w {
			out = append(out, pr)
		}
	}
	return out
}

func (p *flagProblem) Transfer(e *cfa.Edge, in guardFact) guardFact {
	if in.vals == nil {
		return guardFact{}
	}
	out := guardFact{
		vals:  append([]Value(nil), in.vals...),
		own:   in.own,
		pairs: append([]condPair(nil), in.pairs...),
	}
	switch e.Op.Kind {
	case cfa.OpAssign:
		p.cp.assign(out.vals, e.Op.LHS, p.cp.evalStore(e.Op.RHS, in.vals))
	case cfa.OpHavoc:
		p.cp.assign(out.vals, e.Op.LHS, Value{Kind: valNAC})
	case cfa.OpAssume:
		if p.cp.evalPred(e.Op.Pred, in.vals) == predFalse {
			return guardFact{} // guard cannot pass: successor unreached
		}
		p.cp.refine(e.Op.Pred, out.vals)
	}
	// A write to a conditional-ownership witness decouples it from the
	// ownership it witnessed.
	if w := e.Writes(); w != "" && out.own == ownCond {
		if wi, ok := p.cp.vars.idx[w]; ok {
			out.pairs = dropPairs(out.pairs, wi)
			if len(out.pairs) == 0 {
				out.own = ownTop
			}
		}
	}
	// A refined fact that decides a surviving witness decides ownership
	// (only assume edges can newly decide one — assignments to witnesses
	// were dropped above).
	if out.own == ownCond {
		for _, pr := range out.pairs {
			if c, ok := p.constIdx(out.vals, pr.w); ok && c == pr.a {
				out.own, out.pairs = ownOwn, nil
				break
			}
			if p.neIdx(out.vals, pr.w, pr.a) {
				out.own, out.pairs = ownNo, nil
				break
			}
		}
	}
	if e.Writes() == p.flag {
		p.classifyFlagWrite(e, in, &out)
	}
	// Interference: at a non-atomic destination other threads run, so
	// every fact about a global (or a copy of one) is stale.
	if !p.c.IsAtomic(e.Dst) {
		p.scrub(out.vals)
	}
	return out
}

// classifyFlagWrite applies the acquire/owner-write/release protocol to a
// write of the candidate flag, updating ownership or disqualifying the
// flag.
func (p *flagProblem) classifyFlagWrite(e *cfa.Edge, in guardFact, out *guardFact) {
	if e.Op.Kind == cfa.OpHavoc {
		p.disqualify("havoc write %s at loc %d", e.Op, e.Src)
		return
	}
	c, ok := p.cp.eval(e.Op.RHS, in.vals).IsConst()
	if !ok {
		p.disqualify("non-constant write %s at loc %d", e.Op, e.Src)
		return
	}
	switch {
	case c == p.unlock:
		// Release. Only the owner may return the flag to its unlocked
		// value — a foreign release would let a second acquire succeed
		// while the real owner still sits in the guarded region.
		if in.own != ownOwn {
			p.disqualify("release %s at loc %d without ownership", e.Op, e.Src)
			return
		}
		out.own, out.pairs = ownNo, nil
	case in.own == ownOwn:
		// Owner re-write to another locked value: ownership continues.
	case p.c.IsAtomic(e.Src) && p.mustFlagUnlocked(in.vals):
		// Acquire: an atomic test-and-set. The write happens from an
		// atomic location where f == unlock provably holds, so no other
		// thread owns the flag and the locked value installs ownership.
		out.own, out.pairs = ownOwn, nil
		p.acquireConst[c] = true
	default:
		// A blind write of a locked value by a possible non-owner: it can
		// never release anyone's ownership, so mutual exclusion survives
		// and the writer's own status is unchanged.
	}
}

func (p *flagProblem) mustFlagUnlocked(vals []Value) bool {
	c, ok := p.constIdx(vals, p.flagIdx)
	return ok && c == p.unlock
}

func (p *flagProblem) disqualify(format string, args ...any) {
	if !p.invalid {
		p.invalid = true
		p.invalidWhy = fmt.Sprintf(format, args...)
	}
}

// scrub kills facts other threads can invalidate: values of globals and
// copies whose source is a global.
func (p *flagProblem) scrub(vals []Value) {
	for i := range vals {
		switch vals[i].Kind {
		case valConst, valNe:
			if p.isGlobal[i] {
				vals[i] = Value{Kind: valNAC}
			}
		case valCopy:
			if p.isGlobal[i] || p.isGlobal[vals[i].Src] {
				vals[i] = Value{Kind: valNAC}
			}
		}
	}
}

// flagSolution is the solved analysis for one (flag, unlock) candidate.
type flagSolution struct {
	flag          string
	unlock        int64
	valid         bool
	invalidWhy    string
	in            []guardFact // per location
	acquireConsts []int64     // sorted locked values installed by acquires
	prob          *flagProblem
}

// FlagGuardResult holds the flag-guard solutions for one CFA, one per
// candidate busy flag.
type FlagGuardResult struct {
	c    *cfa.CFA
	sols []*flagSolution // in Globals order, then by unlock value
}

// SeedPred is one guard fact exported as an initial abstraction
// predicate, with its provenance.
type SeedPred struct {
	// Pred is the predicate, over CFA variable names.
	Pred expr.Expr
	// Origin names the candidate flag the fact was proved about.
	Origin string
}

// FlagGuard runs the flag-guarded exclusion analysis on c. Candidate
// flags are globals that are compared against a constant somewhere and
// written a constant from an atomic location — the shape of a busy flag;
// each constant the flag is compared against is tried as the unlocked
// value. The result answers discharge queries per global and exports the
// proven guard facts as seed predicates.
func FlagGuard(c *cfa.CFA) *FlagGuardResult {
	r := &FlagGuardResult{c: c}
	cands := atomicConstWrites(c)
	if len(cands) == 0 {
		return r
	}
	vars := indexVars(c)
	isGlobal := make([]bool, len(vars.names))
	for i, name := range vars.names {
		isGlobal[i] = c.IsGlobal(name)
	}
	for _, f := range c.Globals {
		if !cands[f] {
			continue
		}
		for _, unlock := range comparedConsts(c, f) {
			r.sols = append(r.sols, solveFlag(c, vars, isGlobal, f, unlock))
		}
	}
	return r
}

func solveFlag(c *cfa.CFA, vars *varIndex, isGlobal []bool, flag string, unlock int64) *flagSolution {
	p := &flagProblem{
		cp:           &constProblem{vars: vars},
		c:            c,
		flag:         flag,
		flagIdx:      vars.idx[flag],
		unlock:       unlock,
		isGlobal:     isGlobal,
		acquireConst: map[int64]bool{},
	}
	sol := &flagSolution{flag: flag, unlock: unlock, prob: p}
	sol.in = Solve[guardFact](c, p)
	for a := range p.acquireConst {
		sol.acquireConsts = append(sol.acquireConsts, a)
	}
	sort.Slice(sol.acquireConsts, func(i, j int) bool { return sol.acquireConsts[i] < sol.acquireConsts[j] })
	sol.valid = !p.invalid && len(sol.acquireConsts) > 0
	sol.invalidWhy = p.invalidWhy
	return sol
}

// atomicConstWrites collects, in one pass over the edges, the globals
// some reachable edge writes a literal constant to from an atomic
// location — the minimum footprint of an acquire.
func atomicConstWrites(c *cfa.CFA) map[string]bool {
	var out map[string]bool
	for _, e := range c.Edges {
		if e.Op.Kind != cfa.OpAssign || !c.IsGlobal(e.Op.LHS) || !c.IsAtomic(e.Src) || !c.Reachable(e.Src) {
			continue
		}
		if _, ok := e.Op.RHS.(expr.Int); ok {
			if out == nil {
				out = make(map[string]bool)
			}
			out[e.Op.LHS] = true
		}
	}
	return out
}

// comparedConsts collects the constants f is compared against by
// (dis)equality guards, sorted — the candidate unlocked values.
func comparedConsts(c *cfa.CFA, f string) []int64 {
	seen := map[int64]bool{}
	var walk func(e expr.Expr)
	walk = func(e expr.Expr) {
		switch e := e.(type) {
		case expr.Cmp:
			if e.Op != expr.OpEq && e.Op != expr.OpNe {
				return
			}
			if v, ok := e.X.(expr.Var); ok && v.Name == f {
				if n, ok := e.Y.(expr.Int); ok {
					seen[n.Value] = true
				}
			}
			if v, ok := e.Y.(expr.Var); ok && v.Name == f {
				if n, ok := e.X.(expr.Int); ok {
					seen[n.Value] = true
				}
			}
		case expr.Not:
			walk(e.X)
		case expr.And:
			for _, x := range e.Xs {
				walk(x)
			}
		case expr.Or:
			for _, x := range e.Xs {
				walk(x)
			}
		}
	}
	for _, e := range c.Edges {
		if e.Op.Kind == cfa.OpAssume && c.Reachable(e.Src) {
			walk(e.Op.Pred)
		}
	}
	out := make([]int64, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Discharge reports whether every reachable uncovered access to g sits in
// a region some valid flag's must-analysis marks as owned. Two template
// copies can then never co-occupy the accessing locations: the uncovered
// ones require owning the same single-owner flag, and the covered ones
// occupy atomic locations the race definition already excludes.
func (r *FlagGuardResult) Discharge(g string) (Discharge, bool) {
	for _, sol := range r.sols {
		if !sol.valid {
			continue
		}
		uncovered, ok := sol.covers(r.c, g)
		if !ok {
			continue
		}
		return Discharge{Reason: ReasonFlagGuarded, thread: r.c.Name, global: g, accesses: uncovered, sol: sol}, true
	}
	return Discharge{}, false
}

// covers checks every access to g against sol's ownership map, returning
// the number of uncovered (non-atomic) accesses it had to justify.
func (sol *flagSolution) covers(c *cfa.CFA, g string) (int, bool) {
	uncovered := 0
	for _, e := range c.Edges {
		if e.Writes() != g && !e.Reads()[g] {
			continue
		}
		if sol.in[e.Src].vals == nil {
			continue // unreached under the guarded semantics
		}
		if c.IsAtomic(e.Src) {
			continue
		}
		if sol.in[e.Src].own != ownOwn {
			return 0, false
		}
		uncovered++
	}
	return uncovered, true
}

// SeedPredicates exports the analysis's guard facts as initial
// abstraction predicates for a non-discharged global: equality of each
// candidate flag with its unlocked and locked values, plus the
// conditional-ownership witness equalities (the "old" locals of
// test-and-set idioms). Seeding is purely a precision hint — predicate
// abstraction is sound for any predicate set — so facts from disqualified
// flags are exported too. The list is deduplicated, deterministic, and
// capped.
func (r *FlagGuardResult) SeedPredicates() []SeedPred {
	const maxSeeds = 12
	var out []SeedPred
	seen := map[string]bool{}
	add := func(origin string, p expr.Expr) {
		if k := p.Key(); !seen[k] && len(out) < maxSeeds {
			seen[k] = true
			out = append(out, SeedPred{Pred: p, Origin: origin})
		}
	}
	for _, sol := range r.sols {
		add(sol.flag, expr.Eq(expr.V(sol.flag), expr.Num(sol.unlock)))
		for _, a := range sol.acquireConsts {
			add(sol.flag, expr.Eq(expr.V(sol.flag), expr.Num(a)))
		}
		// Locked values written blindly still shape the flag's domain.
		for _, e := range r.c.Edges {
			if e.Writes() == sol.flag && e.Op.Kind == cfa.OpAssign {
				if n, ok := e.Op.RHS.(expr.Int); ok && n.Value != sol.unlock {
					add(sol.flag, expr.Eq(expr.V(sol.flag), expr.Num(n.Value)))
				}
			}
		}
		// Witness equalities from conditional ownership.
		pairs := map[condPair]bool{}
		for _, f := range sol.in {
			for _, pr := range f.pairs {
				pairs[pr] = true
			}
		}
		sorted := make([]condPair, 0, len(pairs))
		for pr := range pairs {
			sorted = append(sorted, pr)
		}
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].w != sorted[j].w {
				return sorted[i].w < sorted[j].w
			}
			return sorted[i].a < sorted[j].a
		})
		for _, pr := range sorted {
			add(sol.flag, expr.Eq(expr.V(sol.prob.cp.vars.names[pr.w]), expr.Num(pr.a)))
		}
	}
	return out
}
