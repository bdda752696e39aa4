package dataflow

import (
	"testing"
	"unsafe"

	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/lang"
)

// diamond builds the classic two-armed CFA:
//
//	0 --x:=1--> 1 --skip--> 3
//	0 --x:=2--> 2 --y:=x--> 3
func diamond() *cfa.CFA {
	edges := []*cfa.Edge{
		{Src: 0, Dst: 1, Op: cfa.Op{Kind: cfa.OpAssign, LHS: "x", RHS: expr.Num(1)}},
		{Src: 0, Dst: 2, Op: cfa.Op{Kind: cfa.OpAssign, LHS: "x", RHS: expr.Num(2)}},
		{Src: 1, Dst: 3, Op: cfa.Op{Kind: cfa.OpAssume, Pred: expr.TrueExpr}},
		{Src: 2, Dst: 3, Op: cfa.Op{Kind: cfa.OpAssign, LHS: "y", RHS: expr.V("x")}},
	}
	return cfa.New("diamond", []string{"x"}, []string{"y"}, 0, make([]bool, 4), edges)
}

func TestConstantPropagation(t *testing.T) {
	c := diamond()
	r := ConstantPropagation(c)
	if v, ok := r.ConstAt(1, "x"); !ok || v != 1 {
		t.Errorf("x at loc 1 = (%d,%v), want constant 1", v, ok)
	}
	if v, ok := r.ConstAt(2, "x"); !ok || v != 2 {
		t.Errorf("x at loc 2 = (%d,%v), want constant 2", v, ok)
	}
	// The join merges 1 and 2: not a constant.
	if _, ok := r.ConstAt(3, "x"); ok {
		t.Error("x constant at the join of x:=1 and x:=2")
	}
	if _, ok := r.ConstAt(0, "x"); ok {
		t.Error("x constant at the entry (initial values are unconstrained)")
	}
	if !r.Reached(3) {
		t.Error("join not reached")
	}
}

func TestConstantPropagationAssumeRefinement(t *testing.T) {
	// 0 --[x==5]--> 1 --y:=x--> 2: the guard pins x, the copy forwards it.
	edges := []*cfa.Edge{
		{Src: 0, Dst: 1, Op: cfa.Op{Kind: cfa.OpAssume, Pred: expr.Eq(expr.V("x"), expr.Num(5))}},
		{Src: 1, Dst: 2, Op: cfa.Op{Kind: cfa.OpAssign, LHS: "y", RHS: expr.V("x")}},
	}
	c := cfa.New("refine", []string{"x"}, []string{"y"}, 0, make([]bool, 3), edges)
	r := ConstantPropagation(c)
	if v, ok := r.ConstAt(1, "x"); !ok || v != 5 {
		t.Errorf("x after [x==5] = (%d,%v), want constant 5", v, ok)
	}
	if v, ok := r.ConstAt(2, "y"); !ok || v != 5 {
		t.Errorf("y after y:=x = (%d,%v), want constant 5", v, ok)
	}
}

func TestConstantPropagationUnreachable(t *testing.T) {
	// A false guard cuts the only path: the successor is unreached.
	edges := []*cfa.Edge{
		{Src: 0, Dst: 1, Op: cfa.Op{Kind: cfa.OpAssume, Pred: expr.FalseExpr}},
	}
	c := cfa.New("dead", nil, nil, 0, make([]bool, 2), edges)
	r := ConstantPropagation(c)
	if r.Reached(1) {
		t.Error("location behind [false] reported reachable")
	}
}

func TestConstantPropagationCopyInvalidation(t *testing.T) {
	// y:=x; x:=7 — the copy must not survive the redefinition of x.
	edges := []*cfa.Edge{
		{Src: 0, Dst: 1, Op: cfa.Op{Kind: cfa.OpAssume, Pred: expr.Eq(expr.V("x"), expr.Num(3))}},
		{Src: 1, Dst: 2, Op: cfa.Op{Kind: cfa.OpAssign, LHS: "y", RHS: expr.V("x")}},
		{Src: 2, Dst: 3, Op: cfa.Op{Kind: cfa.OpAssign, LHS: "x", RHS: expr.Num(7)}},
	}
	c := cfa.New("copy", []string{"x"}, []string{"y"}, 0, make([]bool, 4), edges)
	r := ConstantPropagation(c)
	if v, ok := r.ConstAt(3, "y"); !ok || v != 3 {
		t.Errorf("y at exit = (%d,%v), want constant 3 (copied before x changed)", v, ok)
	}
	if v, ok := r.ConstAt(3, "x"); !ok || v != 7 {
		t.Errorf("x at exit = (%d,%v), want constant 7", v, ok)
	}
}

// mustBuild parses MiniNesC source and builds the named thread's CFA.
func mustBuild(t *testing.T, src, thread string) *cfa.CFA {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cfa.Build(p, thread)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const triageSrc = `
global int unused;
global int ro;
global int covered;
global int open;

thread T {
  local int tmp;
  while (1) {
    tmp = ro;
    atomic { covered = covered + 1; }
    open = open + 1;
  }
}
`

func TestTriageClassification(t *testing.T) {
	c := mustBuild(t, triageSrc, "")
	cases := []struct {
		global string
		reason string
		ok     bool
	}{
		{"unused", ReasonThreadLocal, true},
		{"ro", ReasonReadOnly, true},
		{"covered", ReasonAtomicCovered, true},
		{"open", "", false},
	}
	for _, tc := range cases {
		d, ok := Triage(c, tc.global)
		if ok != tc.ok || d.Reason != tc.reason {
			t.Errorf("Triage(%s) = (%q, %v), want (%q, %v)", tc.global, d.Reason, ok, tc.reason, tc.ok)
		}
	}
}

func TestTriageIgnoresUnreachableAccesses(t *testing.T) {
	// The write to g sits behind [false]: statically unreachable, so g is
	// effectively read-only... in fact thread-local.
	edges := []*cfa.Edge{
		{Src: 0, Dst: 1, Op: cfa.Op{Kind: cfa.OpAssume, Pred: expr.TrueExpr}},
		{Src: 2, Dst: 3, Op: cfa.Op{Kind: cfa.OpAssign, LHS: "g", RHS: expr.Num(1)}},
	}
	c := cfa.New("dead-write", []string{"g"}, nil, 0, make([]bool, 4), edges)
	d, ok := Triage(c, "g")
	if !ok || d.Reason != ReasonThreadLocal {
		t.Fatalf("Triage = (%q, %v), want thread-local (the write is unreachable)", d.Reason, ok)
	}
}

// TestValueSize: a fact holds one Value per variable and the flag-guard
// analysis clones whole facts, so a Value stays 16 bytes.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Fatalf("Value is %d bytes, want 16", n)
	}
}
