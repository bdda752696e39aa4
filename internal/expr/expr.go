// Package expr defines the expression and formula intermediate
// representation shared by the frontend, the predicate-abstraction layer,
// and the decision procedure.
//
// Terms are integer-valued: constants, variables, and the arithmetic
// operators +, -, * (unary minus is represented as 0-x by the parser).
// Formulas are boolean-valued: the constants true/false, comparisons
// between terms, and the connectives not/and/or.
//
// Expressions are immutable trees. Two expressions are semantically
// interchangeable for hashing purposes iff their Key strings are equal.
package expr

import (
	"fmt"
	"sort"
	"strings"
)

// Expr is an expression node: either a term (integer-valued) or a formula
// (boolean-valued). The concrete types are Int, Var, Bin, Bool, Cmp, Not,
// And, and Or.
type Expr interface {
	// Key returns a canonical string for the expression, used as a hash
	// key. Structurally equal expressions have equal keys.
	Key() string
	// String renders the expression in MiniNesC surface syntax.
	String() string
	isExpr()
}

// BinOp enumerates arithmetic operators.
type BinOp int

// Arithmetic operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	}
	return fmt.Sprintf("BinOp(%d)", int(op))
}

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return fmt.Sprintf("CmpOp(%d)", int(op))
}

// Negate returns the complementary comparison (e.g. == becomes !=).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	panic(fmt.Sprintf("expr: unknown CmpOp %d", int(op)))
}

// Int is an integer constant term.
type Int struct {
	Value int64
}

// Var is a variable reference term. Names may carry SSA version or thread
// suffixes introduced by Rename; the frontend guarantees base names contain
// no '#' or '@'.
type Var struct {
	Name string
}

// Bin is a binary arithmetic term.
type Bin struct {
	Op   BinOp
	X, Y Expr
}

// Bool is a boolean constant formula.
type Bool struct {
	Value bool
}

// Cmp is a comparison formula between two terms.
type Cmp struct {
	Op   CmpOp
	X, Y Expr
}

// Not is boolean negation.
type Not struct {
	X Expr
}

// And is n-ary conjunction. An empty And is true.
type And struct {
	Xs []Expr
}

// Or is n-ary disjunction. An empty Or is false.
type Or struct {
	Xs []Expr
}

func (Int) isExpr()  {}
func (Var) isExpr()  {}
func (Bin) isExpr()  {}
func (Bool) isExpr() {}
func (Cmp) isExpr()  {}
func (Not) isExpr()  {}
func (And) isExpr()  {}
func (Or) isExpr()   {}

// Constructors. These perform light normalisation (constant folding is left
// to Simplify).

// Num returns an integer constant.
func Num(v int64) Expr { return Int{Value: v} }

// V returns a variable reference.
func V(name string) Expr { return Var{Name: name} }

// Add returns x + y.
func Add(x, y Expr) Expr { return Bin{Op: OpAdd, X: x, Y: y} }

// Sub returns x - y.
func Sub(x, y Expr) Expr { return Bin{Op: OpSub, X: x, Y: y} }

// Mul returns x * y.
func Mul(x, y Expr) Expr { return Bin{Op: OpMul, X: x, Y: y} }

// True and False are the boolean constants.
var (
	TrueExpr  Expr = Bool{Value: true}
	FalseExpr Expr = Bool{Value: false}
)

// Compare returns the comparison x op y.
func Compare(op CmpOp, x, y Expr) Expr { return Cmp{Op: op, X: x, Y: y} }

// Eq returns x == y.
func Eq(x, y Expr) Expr { return Cmp{Op: OpEq, X: x, Y: y} }

// Ne returns x != y.
func Ne(x, y Expr) Expr { return Cmp{Op: OpNe, X: x, Y: y} }

// Lt returns x < y.
func Lt(x, y Expr) Expr { return Cmp{Op: OpLt, X: x, Y: y} }

// Le returns x <= y.
func Le(x, y Expr) Expr { return Cmp{Op: OpLe, X: x, Y: y} }

// Gt returns x > y.
func Gt(x, y Expr) Expr { return Cmp{Op: OpGt, X: x, Y: y} }

// Ge returns x >= y.
func Ge(x, y Expr) Expr { return Cmp{Op: OpGe, X: x, Y: y} }

// Negate returns the logical negation of f, pushing the negation into
// comparisons and boolean constants where immediate.
func Negate(f Expr) Expr {
	switch g := f.(type) {
	case Bool:
		return Bool{Value: !g.Value}
	case Cmp:
		return Cmp{Op: g.Op.Negate(), X: g.X, Y: g.Y}
	case Not:
		return g.X
	default:
		return Not{X: f}
	}
}

// Conj returns the conjunction of fs, flattening nested Ands and dropping
// true conjuncts. Conj of nothing is true; a false conjunct collapses the
// result to false.
func Conj(fs ...Expr) Expr {
	var out []Expr
	var walk func(Expr) bool
	walk = func(f Expr) bool {
		switch g := f.(type) {
		case Bool:
			return g.Value
		case And:
			for _, x := range g.Xs {
				if !walk(x) {
					return false
				}
			}
			return true
		default:
			out = append(out, f)
			return true
		}
	}
	for _, f := range fs {
		if !walk(f) {
			return FalseExpr
		}
	}
	switch len(out) {
	case 0:
		return TrueExpr
	case 1:
		return out[0]
	}
	return And{Xs: out}
}

// Disj returns the disjunction of fs, flattening nested Ors and dropping
// false disjuncts. Disj of nothing is false; a true disjunct collapses the
// result to true.
func Disj(fs ...Expr) Expr {
	var out []Expr
	var walk func(Expr) bool
	walk = func(f Expr) bool {
		switch g := f.(type) {
		case Bool:
			return !g.Value
		case Or:
			for _, x := range g.Xs {
				if !walk(x) {
					return false
				}
			}
			return true
		default:
			out = append(out, f)
			return true
		}
	}
	for _, f := range fs {
		if !walk(f) {
			return TrueExpr
		}
	}
	switch len(out) {
	case 0:
		return FalseExpr
	case 1:
		return out[0]
	}
	return Or{Xs: out}
}

// Implies returns the formula a -> b, encoded as !a || b.
func Implies(a, b Expr) Expr { return Disj(Negate(a), b) }

// Key implementations. The encodings are unambiguous prefix forms.

func (e Int) Key() string  { return fmt.Sprintf("i%d", e.Value) }
func (e Var) Key() string  { return "v" + e.Name }
func (e Bin) Key() string  { return fmt.Sprintf("(%s %s %s)", e.Op, e.X.Key(), e.Y.Key()) }
func (e Bool) Key() string { return fmt.Sprintf("b%t", e.Value) }
func (e Cmp) Key() string  { return fmt.Sprintf("(%s %s %s)", e.Op, e.X.Key(), e.Y.Key()) }
func (e Not) Key() string  { return fmt.Sprintf("(! %s)", e.X.Key()) }

func (e And) Key() string {
	parts := make([]string, len(e.Xs))
	for i, x := range e.Xs {
		parts[i] = x.Key()
	}
	return "(& " + strings.Join(parts, " ") + ")"
}

func (e Or) Key() string {
	parts := make([]string, len(e.Xs))
	for i, x := range e.Xs {
		parts[i] = x.Key()
	}
	return "(| " + strings.Join(parts, " ") + ")"
}

// String implementations render MiniNesC surface syntax with minimal
// parenthesisation.

func (e Int) String() string  { return fmt.Sprintf("%d", e.Value) }
func (e Var) String() string  { return e.Name }
func (e Bool) String() string { return fmt.Sprintf("%t", e.Value) }

func (e Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.X, e.Op, e.Y)
}

func (e Cmp) String() string {
	return fmt.Sprintf("%s %s %s", e.X, e.Op, e.Y)
}

func (e Not) String() string { return fmt.Sprintf("!(%s)", e.X) }

func (e And) String() string {
	parts := make([]string, len(e.Xs))
	for i, x := range e.Xs {
		parts[i] = fmt.Sprintf("(%s)", x)
	}
	return strings.Join(parts, " && ")
}

func (e Or) String() string {
	parts := make([]string, len(e.Xs))
	for i, x := range e.Xs {
		parts[i] = fmt.Sprintf("(%s)", x)
	}
	return strings.Join(parts, " || ")
}

// Equal reports structural equality.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Key() == b.Key()
}

// FreeVars returns the set of variable names occurring in e.
func FreeVars(e Expr) map[string]bool {
	out := make(map[string]bool)
	CollectVars(e, out)
	return out
}

// CollectVars adds the variable names occurring in e to out.
func CollectVars(e Expr, out map[string]bool) {
	switch g := e.(type) {
	case Int, Bool:
	case Var:
		out[g.Name] = true
	case Bin:
		CollectVars(g.X, out)
		CollectVars(g.Y, out)
	case Cmp:
		CollectVars(g.X, out)
		CollectVars(g.Y, out)
	case Not:
		CollectVars(g.X, out)
	case And:
		for _, x := range g.Xs {
			CollectVars(x, out)
		}
	case Or:
		for _, x := range g.Xs {
			CollectVars(x, out)
		}
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

// SortedVars returns the variable names occurring in e in sorted order.
func SortedVars(e Expr) []string {
	set := FreeVars(e)
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Mentions reports whether variable name occurs in e.
func Mentions(e Expr, name string) bool {
	switch g := e.(type) {
	case Int, Bool:
		return false
	case Var:
		return g.Name == name
	case Bin:
		return Mentions(g.X, name) || Mentions(g.Y, name)
	case Cmp:
		return Mentions(g.X, name) || Mentions(g.Y, name)
	case Not:
		return Mentions(g.X, name)
	case And:
		for _, x := range g.Xs {
			if Mentions(x, name) {
				return true
			}
		}
		return false
	case Or:
		for _, x := range g.Xs {
			if Mentions(x, name) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

// MentionsAny reports whether any variable in names occurs in e.
func MentionsAny(e Expr, names map[string]bool) bool {
	for v := range FreeVars(e) {
		if names[v] {
			return true
		}
	}
	return false
}

// Subst returns e with every free occurrence of a variable in m replaced by
// the corresponding expression. The substitution is simultaneous.
func Subst(e Expr, m map[string]Expr) Expr {
	switch g := e.(type) {
	case Int, Bool:
		return e
	case Var:
		if r, ok := m[g.Name]; ok {
			return r
		}
		return e
	case Bin:
		return Bin{Op: g.Op, X: Subst(g.X, m), Y: Subst(g.Y, m)}
	case Cmp:
		return Cmp{Op: g.Op, X: Subst(g.X, m), Y: Subst(g.Y, m)}
	case Not:
		return Not{X: Subst(g.X, m)}
	case And:
		xs := make([]Expr, len(g.Xs))
		for i, x := range g.Xs {
			xs[i] = Subst(x, m)
		}
		return And{Xs: xs}
	case Or:
		xs := make([]Expr, len(g.Xs))
		for i, x := range g.Xs {
			xs[i] = Subst(x, m)
		}
		return Or{Xs: xs}
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

// SubstVar returns e with variable name replaced by r.
func SubstVar(e Expr, name string, r Expr) Expr {
	return Subst(e, map[string]Expr{name: r})
}

// Rename returns e with every variable name mapped through f.
func Rename(e Expr, f func(string) string) Expr {
	switch g := e.(type) {
	case Int, Bool:
		return e
	case Var:
		return Var{Name: f(g.Name)}
	case Bin:
		return Bin{Op: g.Op, X: Rename(g.X, f), Y: Rename(g.Y, f)}
	case Cmp:
		return Cmp{Op: g.Op, X: Rename(g.X, f), Y: Rename(g.Y, f)}
	case Not:
		return Not{X: Rename(g.X, f)}
	case And:
		xs := make([]Expr, len(g.Xs))
		for i, x := range g.Xs {
			xs[i] = Rename(x, f)
		}
		return And{Xs: xs}
	case Or:
		xs := make([]Expr, len(g.Xs))
		for i, x := range g.Xs {
			xs[i] = Rename(x, f)
		}
		return Or{Xs: xs}
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

// Atoms collects the distinct comparison atoms of formula f in first-seen
// order.
func Atoms(f Expr) []Expr {
	var out []Expr
	seen := make(map[string]bool)
	var walk func(Expr)
	walk = func(e Expr) {
		switch g := e.(type) {
		case Cmp:
			if k := g.Key(); !seen[k] {
				seen[k] = true
				out = append(out, g)
			}
		case Not:
			walk(g.X)
		case And:
			for _, x := range g.Xs {
				walk(x)
			}
		case Or:
			for _, x := range g.Xs {
				walk(x)
			}
		}
	}
	walk(f)
	return out
}
