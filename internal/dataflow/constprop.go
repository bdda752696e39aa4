package dataflow

import (
	"circ/internal/cfa"
	"circ/internal/expr"
)

// valKind classifies one variable's abstract value in the flat
// constant/copy lattice.
type valKind uint8

const (
	// valNAC ("not a constant") is the lattice top: the variable may hold
	// any value. It is also the entry fact for every variable — the
	// engine's semantics leave initial values unconstrained.
	valNAC valKind = iota
	// valConst is a known integer constant.
	valConst
	// valCopy means "same value as variable Vars[Src]" (copy propagation).
	valCopy
	// valNe means "provably not equal to N" — established by passing a
	// negated guard (assume [!(x==c)] / assume [x != c]). It sits between
	// valConst and valNAC: Const(a) with a != c is a refinement of Ne(c).
	valNe
)

// Value is one variable's abstract value. It is 16 bytes: a fact holds
// one per variable and the flag-guard analysis clones facts on every
// transfer.
type Value struct {
	Kind valKind
	Src  int32 // valCopy: the source variable's index in ConstResult.Vars
	N    int64 // valConst, valNe
}

func (v Value) eq(w Value) bool { return v.Kind == w.Kind && v.N == w.N && v.Src == w.Src }

// IsConst reports whether the value is a known constant, and which.
func (v Value) IsConst() (int64, bool) { return v.N, v.Kind == valConst }

// ConstFact maps every variable to its abstract value at a location. A
// nil Vals slice is the lattice bottom: the location is unreached.
type ConstFact struct {
	Vals []Value
}

func (f ConstFact) reached() bool { return f.Vals != nil }

// ConstResult is the constant/copy-propagation solution for one CFA.
type ConstResult struct {
	// Vars enumerates the variables some edge of the CFA reads or writes;
	// index i of a fact corresponds to Vars[i]. ConstAt reports every
	// other variable as unknown.
	Vars []string
	// In[l] is the fact on entry to l. A nil fact marks l statically
	// unreachable.
	In []ConstFact

	idx map[string]int
}

// ConstAt returns the constant value of v on entry to l, if the analysis
// proved one.
func (r *ConstResult) ConstAt(l cfa.Loc, v string) (int64, bool) {
	i, ok := r.idx[v]
	if !ok || !r.In[l].reached() {
		return 0, false
	}
	return r.In[l].Vals[i].IsConst()
}

// Reached reports whether the analysis found any path from the entry
// to l.
func (r *ConstResult) Reached(l cfa.Loc) bool { return r.In[l].reached() }

type constProblem struct {
	vars *varIndex
}

func (p *constProblem) Bottom() ConstFact { return ConstFact{} }

// Boundary: every variable starts NAC — globals are written by the
// environment and the semantics constrain no initial value.
func (p *constProblem) Boundary() ConstFact {
	return ConstFact{Vals: make([]Value, len(p.vars.names))}
}

func (p *constProblem) Join(dst, src ConstFact) (ConstFact, bool) {
	if !src.reached() {
		return dst, false
	}
	if !dst.reached() {
		out := ConstFact{Vals: make([]Value, len(src.Vals))}
		copy(out.Vals, src.Vals)
		return out, true
	}
	changed := false
	for i := range dst.Vals {
		j := joinVal(dst.Vals[i], src.Vals[i])
		if !j.eq(dst.Vals[i]) {
			dst.Vals[i] = j
			changed = true
		}
	}
	return dst, changed
}

// joinVal is the least upper bound in the flat lattice extended with Ne:
// Const(a) ⊑ Ne(c) whenever a != c, so joining the two keeps the
// disequality instead of dropping straight to NAC.
func joinVal(a, b Value) Value {
	if a.eq(b) {
		return a
	}
	if a.Kind == valConst && b.Kind == valNe && a.N != b.N {
		return b
	}
	if b.Kind == valConst && a.Kind == valNe && b.N != a.N {
		return a
	}
	return Value{Kind: valNAC}
}

func (p *constProblem) Transfer(e *cfa.Edge, in ConstFact) ConstFact {
	if !in.reached() {
		return in
	}
	out := ConstFact{Vals: make([]Value, len(in.Vals))}
	copy(out.Vals, in.Vals)
	switch e.Op.Kind {
	case cfa.OpAssign:
		p.assign(out.Vals, e.Op.LHS, p.eval(e.Op.RHS, in.Vals))
	case cfa.OpHavoc:
		p.assign(out.Vals, e.Op.LHS, Value{Kind: valNAC})
	case cfa.OpAssume:
		switch p.evalPred(e.Op.Pred, in.Vals) {
		case predFalse:
			return ConstFact{} // the guard cannot pass: successor unreached
		default:
			p.refine(e.Op.Pred, out.Vals)
		}
	}
	return out
}

// assign writes v into x and invalidates every copy whose source was x —
// "y = x" stops meaning anything once x changes.
func (p *constProblem) assign(vals []Value, x string, v Value) {
	i, ok := p.vars.idx[x]
	if !ok {
		return
	}
	for j := range vals {
		if vals[j].Kind == valCopy && int(vals[j].Src) == i {
			vals[j] = Value{Kind: valNAC}
		}
	}
	vals[i] = v
}

// eval abstracts an arithmetic expression over the current fact.
func (p *constProblem) eval(e expr.Expr, vals []Value) Value {
	switch e := e.(type) {
	case expr.Int:
		return Value{Kind: valConst, N: e.Value}
	case expr.Var:
		i, ok := p.vars.idx[e.Name]
		if !ok {
			return Value{Kind: valNAC}
		}
		switch v := vals[i]; v.Kind {
		case valConst:
			return v
		case valCopy:
			// Chains are collapsed at assignment time, so a copy's source
			// is never itself a copy; propagate it as the copy value.
			return v
		default:
			return Value{Kind: valCopy, Src: int32(i)}
		}
	case expr.Bin:
		x, y := p.eval(e.X, vals), p.eval(e.Y, vals)
		a, aok := x.IsConst()
		b, bok := y.IsConst()
		if !aok || !bok {
			return Value{Kind: valNAC}
		}
		switch e.Op {
		case expr.OpAdd:
			return Value{Kind: valConst, N: a + b}
		case expr.OpSub:
			return Value{Kind: valConst, N: a - b}
		case expr.OpMul:
			return Value{Kind: valConst, N: a * b}
		}
	}
	return Value{Kind: valNAC}
}

// evalStore abstracts an assignment's right-hand side for the
// interference-aware flag-guard analysis. Unlike eval, a bare variable
// always becomes a copy, even when its current value is a known
// constant: storing the resolved constant would make the transfer
// non-monotone — the same edge would emit incomparable Const/Copy
// outputs as its input fact weakens across fixpoint iterations, and the
// destination would join them to NAC, severing the copy link that
// witness resolution and pin propagation depend on. Queries recover the
// constant by resolving the copy link instead.
func (p *constProblem) evalStore(e expr.Expr, vals []Value) Value {
	if v, ok := e.(expr.Var); ok {
		i, ok := p.vars.idx[v.Name]
		if !ok {
			return Value{Kind: valNAC}
		}
		if w := vals[i]; w.Kind == valCopy {
			return w // collapse chains: a copy of a copy copies the root
		}
		return Value{Kind: valCopy, Src: int32(i)}
	}
	return p.eval(e, vals)
}

type predVal int

const (
	predUnknown predVal = iota
	predTrue
	predFalse
)

// evalPred abstracts a boolean predicate over the current fact.
func (p *constProblem) evalPred(e expr.Expr, vals []Value) predVal {
	switch e := e.(type) {
	case expr.Bool:
		if e.Value {
			return predTrue
		}
		return predFalse
	case expr.Cmp:
		x, y := p.abs(e.X, vals), p.abs(e.Y, vals)
		a, aok := x.IsConst()
		b, bok := y.IsConst()
		if !aok || !bok {
			// A known constant against a "!= c" fact still decides pure
			// (dis)equality when the constant is exactly c.
			if ne, c, ok := neAgainstConst(x, y); ok && ne.N == c {
				switch e.Op {
				case expr.OpEq:
					return predFalse
				case expr.OpNe:
					return predTrue
				}
			}
			return predUnknown
		}
		var holds bool
		switch e.Op {
		case expr.OpEq:
			holds = a == b
		case expr.OpNe:
			holds = a != b
		case expr.OpLt:
			holds = a < b
		case expr.OpLe:
			holds = a <= b
		case expr.OpGt:
			holds = a > b
		case expr.OpGe:
			holds = a >= b
		default:
			return predUnknown
		}
		if holds {
			return predTrue
		}
		return predFalse
	case expr.Not:
		switch p.evalPred(e.X, vals) {
		case predTrue:
			return predFalse
		case predFalse:
			return predTrue
		}
	case expr.And:
		all := predTrue
		for _, c := range e.Xs {
			switch p.evalPred(c, vals) {
			case predFalse:
				return predFalse
			case predUnknown:
				all = predUnknown
			}
		}
		return all
	case expr.Or:
		any := predFalse
		for _, c := range e.Xs {
			switch p.evalPred(c, vals) {
			case predTrue:
				return predTrue
			case predUnknown:
				any = predUnknown
			}
		}
		return any
	}
	return predUnknown
}

// abs resolves an expression to its abstract value, additionally looking
// through one copy link so Const/Ne facts on a copied-from variable apply
// to the copy.
func (p *constProblem) abs(e expr.Expr, vals []Value) Value {
	v := p.eval(e, vals)
	if v.Kind == valCopy {
		switch w := vals[v.Src]; w.Kind {
		case valConst, valNe:
			return w
		}
	}
	return v
}

// neAgainstConst extracts (Ne value, constant) when exactly that pairing
// is present, in either order.
func neAgainstConst(x, y Value) (Value, int64, bool) {
	if x.Kind == valNe && y.Kind == valConst {
		return x, y.N, true
	}
	if y.Kind == valNe && x.Kind == valConst {
		return y, x.N, true
	}
	return Value{}, 0, false
}

// refine sharpens the fact through an assume edge: passing [x == c] pins
// x to c on the far side, passing a negated guard [x != c] (or
// [!(x == c)]) pins x to "not c".
func (p *constProblem) refine(pred expr.Expr, vals []Value) {
	switch e := pred.(type) {
	case expr.Cmp:
		switch e.Op {
		case expr.OpEq:
			if v, ok := e.X.(expr.Var); ok {
				if c, ok := p.eval(e.Y, vals).IsConst(); ok {
					p.pin(vals, v.Name, Value{Kind: valConst, N: c})
				}
			}
			if v, ok := e.Y.(expr.Var); ok {
				if c, ok := p.eval(e.X, vals).IsConst(); ok {
					p.pin(vals, v.Name, Value{Kind: valConst, N: c})
				}
			}
		case expr.OpNe:
			if v, ok := e.X.(expr.Var); ok {
				if c, ok := p.eval(e.Y, vals).IsConst(); ok {
					p.pin(vals, v.Name, Value{Kind: valNe, N: c})
				}
			}
			if v, ok := e.Y.(expr.Var); ok {
				if c, ok := p.eval(e.X, vals).IsConst(); ok {
					p.pin(vals, v.Name, Value{Kind: valNe, N: c})
				}
			}
		}
	case expr.Not:
		p.refine(expr.Negate(e.X), vals)
	case expr.And:
		for _, c := range e.Xs {
			p.refine(c, vals)
		}
	}
}

// pin records a Const/Ne fact for x and propagates it across the copy
// relation: "old == x" together with "x == c" gives "old == c", so the
// fact applies to x, to x's copy source, and to every live copy of
// either. Copies are established by plain assignment and invalidated on
// writes, so every propagation target provably equals x here.
func (p *constProblem) pin(vals []Value, x string, v Value) {
	i, ok := p.vars.idx[x]
	if !ok {
		return
	}
	src := int32(-1)
	if vals[i].Kind == valCopy {
		src = vals[i].Src
	}
	for j := range vals {
		if vals[j].Kind == valCopy && (int(vals[j].Src) == i || vals[j].Src == src) {
			vals[j] = v
		}
	}
	vals[i] = v
	if src >= 0 {
		vals[src] = v
	}
}

// ConstantPropagation computes, per location, which variables are pinned
// to known constants (or are exact copies of other variables) on every
// path from the entry. The entry fact is all-NAC: the checker's
// semantics give variables arbitrary initial values.
func ConstantPropagation(c *cfa.CFA) *ConstResult {
	vars := indexVars(c)
	p := &constProblem{vars: vars}
	return &ConstResult{Vars: vars.names, In: Solve[ConstFact](c, p), idx: vars.idx}
}
