package expr

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Lin is a linear combination of variables plus a constant:
//
//	Const + Σ Coeffs[v]·v
//
// Coefficients are int64 and never zero in a normalised Lin. The
// arithmetic is exact: an operation whose result does not fit an int64
// returns ErrOverflow and leaves the form in an unspecified state.
type Lin struct {
	Coeffs map[string]int64
	Const  int64
}

// ErrOverflow reports a linear form whose constant or a coefficient does
// not fit an int64.
var ErrOverflow = errors.New("expr: linear form overflows int64")

// add returns a+b, or ErrOverflow.
func add(a, b int64) (int64, error) {
	s := a + b
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
		return 0, ErrOverflow
	}
	return s, nil
}

// mul returns a·b, or ErrOverflow.
func mul(a, b int64) (int64, error) {
	hi, lo := bits.Mul64(absU(a), absU(b))
	neg := (a < 0) != (b < 0)
	if hi != 0 || lo > math.MaxInt64 && !(neg && lo == 1<<63) {
		return 0, ErrOverflow
	}
	if neg {
		return -int64(lo), nil
	}
	return int64(lo), nil
}

// absU returns |a| as an unsigned integer, which holds |MinInt64|.
func absU(a int64) uint64 {
	if a < 0 {
		return -uint64(a)
	}
	return uint64(a)
}

// NewLin returns the zero linear form.
func NewLin() *Lin { return &Lin{Coeffs: make(map[string]int64)} }

// AddVar adds c·v to the form.
func (l *Lin) AddVar(v string, c int64) error {
	n, err := add(l.Coeffs[v], c)
	if err != nil {
		return err
	}
	if n == 0 {
		delete(l.Coeffs, v)
	} else {
		l.Coeffs[v] = n
	}
	return nil
}

// AddLin adds c·m to the form.
func (l *Lin) AddLin(m *Lin, c int64) error {
	k, err := mul(c, m.Const)
	if err != nil {
		return err
	}
	if l.Const, err = add(l.Const, k); err != nil {
		return err
	}
	for v, mk := range m.Coeffs {
		if k, err = mul(c, mk); err != nil {
			return err
		}
		if err = l.AddVar(v, k); err != nil {
			return err
		}
	}
	return nil
}

// Scale multiplies the form by c.
func (l *Lin) Scale(c int64) error {
	var err error
	if l.Const, err = mul(l.Const, c); err != nil {
		return err
	}
	for v, k := range l.Coeffs {
		if k, err = mul(k, c); err != nil {
			return err
		}
		if k == 0 {
			delete(l.Coeffs, v)
		} else {
			l.Coeffs[v] = k
		}
	}
	return nil
}

// IsConst reports whether the form has no variables.
func (l *Lin) IsConst() bool { return len(l.Coeffs) == 0 }

// Vars returns the variable names in sorted order.
func (l *Lin) Vars() []string {
	out := make([]string, 0, len(l.Coeffs))
	for v := range l.Coeffs {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Key returns a canonical string for the form.
func (l *Lin) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", l.Const)
	for _, v := range l.Vars() {
		fmt.Fprintf(&b, "+%d*%s", l.Coeffs[v], v)
	}
	return b.String()
}

func (l *Lin) String() string {
	var parts []string
	for _, v := range l.Vars() {
		c := l.Coeffs[v]
		switch c {
		case 1:
			parts = append(parts, v)
		case -1:
			parts = append(parts, "-"+v)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, v))
		}
	}
	if l.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", l.Const))
	}
	return strings.Join(parts, " + ")
}

// Linearize converts term e into a linear form. Products of two
// non-constant subterms are abstracted: abstract is called with the
// offending subterm and must return a (stable) fresh variable name for it;
// the returned form then refers to that variable. If abstract is nil,
// Linearize reports an error on nonlinear input. A constant or coefficient
// that does not fit an int64 is ErrOverflow, for a wrapped one would
// change the atom.
func Linearize(e Expr, abstract func(Expr) string) (*Lin, error) {
	switch g := e.(type) {
	case Int:
		l := NewLin()
		l.Const = g.Value
		return l, nil
	case Var:
		return &Lin{Coeffs: map[string]int64{g.Name: 1}}, nil
	case Bin:
		x, err := Linearize(g.X, abstract)
		if err != nil {
			return nil, err
		}
		y, err := Linearize(g.Y, abstract)
		if err != nil {
			return nil, err
		}
		switch {
		case g.Op == OpAdd:
			err = x.AddLin(y, 1)
		case g.Op == OpSub:
			err = x.AddLin(y, -1)
		case g.Op != OpMul:
			return nil, fmt.Errorf("expr: unknown BinOp %v", g.Op)
		case x.IsConst():
			x, err = y, y.Scale(x.Const)
		case y.IsConst():
			err = x.Scale(y.Const)
		case abstract == nil:
			return nil, fmt.Errorf("expr: nonlinear term %s", e)
		default:
			x = &Lin{Coeffs: map[string]int64{abstract(g): 1}}
		}
		if err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, fmt.Errorf("expr: %s is not a term", e)
	}
}

// NormalizeAtom rewrites a comparison into the canonical form
//
//	lhs ⋈ 0    where lhs = Linearize(X - Y)
//
// and returns the linear form together with the (possibly flipped)
// operator. The sign is normalised so the lexicographically smallest
// variable has a positive coefficient when possible, letting syntactically
// different spellings of the same atom share a key.
func NormalizeAtom(c Cmp, abstract func(Expr) string) (*Lin, CmpOp, error) {
	l, err := Linearize(Sub(c.X, c.Y), abstract)
	if err != nil {
		return nil, 0, err
	}
	op := c.Op
	// Normalise sign: make the first (sorted) variable coefficient positive.
	if vs := l.Vars(); len(vs) > 0 && l.Coeffs[vs[0]] < 0 {
		if err := l.Scale(-1); err != nil {
			return nil, 0, err
		}
		switch op {
		case OpLt:
			op = OpGt
		case OpLe:
			op = OpGe
		case OpGt:
			op = OpLt
		case OpGe:
			op = OpLe
		}
	}
	return l, op, nil
}
