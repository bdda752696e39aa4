package cfa

import (
	"strings"
	"testing"

	"circ/internal/expr"
	"circ/internal/lang"
)

func mustBuild(t *testing.T, src string) *CFA {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Build(p, "")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return c
}

func buildErr(t *testing.T, src string) error {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Build(p, "")
	return err
}

func TestStoreLoweringSingleTarget(t *testing.T) {
	c := mustBuild(t, `
global int x;
thread T {
  local int p;
  p = &x;
  *p = 7;
}
`)
	// The store becomes: assume(p == 1) ; x := 7.
	var sawGuard, sawWrite bool
	for _, e := range c.Edges {
		if e.Op.Kind == OpAssume && expr.Equal(e.Op.Pred, expr.Eq(expr.V("p"), expr.Num(1))) {
			sawGuard = true
		}
		if e.Op.Kind == OpAssign && e.Op.LHS == "x" && expr.Equal(e.Op.RHS, expr.Num(7)) {
			sawWrite = true
		}
	}
	if !sawGuard || !sawWrite {
		t.Fatalf("store lowering missing guard(%t)/write(%t):\n%s", sawGuard, sawWrite, c)
	}
}

func TestStoreLoweringMultiTarget(t *testing.T) {
	c := mustBuild(t, `
global int a;
global int b;
thread T {
  local int p;
  choose { p = &a; } or { p = &b; }
  *p = 1;
}
`)
	writes := map[string]bool{}
	for _, e := range c.Edges {
		if e.Op.Kind == OpAssign && expr.Equal(e.Op.RHS, expr.Num(1)) {
			writes[e.Op.LHS] = true
		}
	}
	if !writes["a"] || !writes["b"] {
		t.Fatalf("case split missing branches: %v", writes)
	}
}

func TestStoreHavocThroughPointer(t *testing.T) {
	c := mustBuild(t, `
global int a;
thread T {
  local int p;
  p = &a;
  *p = *;
}
`)
	found := false
	for _, e := range c.Edges {
		if e.Op.Kind == OpHavoc && e.Op.LHS == "a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("havoc-through-pointer not lowered")
	}
}

func TestDerefLoweringCreatesTemp(t *testing.T) {
	c := mustBuild(t, `
global int a;
thread T {
  local int p;
  local int v;
  p = &a;
  v = *p;
}
`)
	hasTemp := false
	for _, l := range c.Locals {
		if strings.HasPrefix(l, "deref") {
			hasTemp = true
		}
	}
	if !hasTemp {
		t.Fatalf("no deref temporary; locals = %v", c.Locals)
	}
	// Some edge loads a into the temp.
	found := false
	for _, e := range c.Edges {
		if e.Op.Kind == OpAssign && strings.HasPrefix(e.Op.LHS, "deref") && expr.Equal(e.Op.RHS, expr.V("a")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("load not lowered")
	}
}

func TestAddrBecomesConstant(t *testing.T) {
	c := mustBuild(t, `
global int a;
global int b;
thread T {
  local int p;
  p = &b;
}
`)
	found := false
	for _, e := range c.Edges {
		if e.Op.Kind == OpAssign && e.Op.LHS == "p" && expr.Equal(e.Op.RHS, expr.Num(2)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("&b (address 2) not lowered to a constant")
	}
}

func TestPointerThroughFunctionParam(t *testing.T) {
	c := mustBuild(t, `
global int a;
void setIt(q) {
  *q = 3;
}
thread T {
  setIt(&a);
}
`)
	found := false
	for _, e := range c.Edges {
		if e.Op.Kind == OpAssign && e.Op.LHS == "a" && expr.Equal(e.Op.RHS, expr.Num(3)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("store through inlined parameter pointer not lowered:\n%s", c)
	}
}

func TestDerefErrors(t *testing.T) {
	if err := buildErr(t, `
global int a;
thread T {
  local int p;
  local int v;
  p = 3;
  v = *p;
}
`); err == nil || !strings.Contains(err.Error(), "empty points-to") {
		t.Fatalf("deref of address-free pointer: %v", err)
	}
	if err := buildErr(t, `
global int a;
thread T {
  local int p;
  p = 3;
  *p = 1;
}
`); err == nil || !strings.Contains(err.Error(), "empty points-to") {
		t.Fatalf("store through address-free pointer: %v", err)
	}
}

func TestVoidFunctionAsValueError(t *testing.T) {
	// Bypass sema by building the AST manually: the builder must still
	// reject a void call in term position.
	p, err := lang.Parse(`
global int g;
void f() { skip; }
thread T {
  f();
}
`)
	if err != nil {
		t.Fatal(err)
	}
	// Splice an assignment g = f() into the thread body.
	th := p.Threads[0]
	th.Body.Stmts = append(th.Body.Stmts, &lang.SAssign{
		LHS: "g",
		RHS: &lang.ACall{Name: "f"},
	})
	if _, err := Build(p, ""); err == nil {
		t.Fatalf("void call in term position accepted by builder")
	}
}

func TestOpAccessors(t *testing.T) {
	asn := Op{Kind: OpAssign, LHS: "x", RHS: expr.Add(expr.V("y"), expr.Num(1))}
	if asn.WritesVar() != "x" || !asn.ReadVars()["y"] {
		t.Fatalf("assign accessors broken")
	}
	asm := Op{Kind: OpAssume, Pred: expr.Eq(expr.V("z"), expr.Num(0))}
	if asm.WritesVar() != "" || !asm.ReadVars()["z"] {
		t.Fatalf("assume accessors broken")
	}
	hv := Op{Kind: OpHavoc, LHS: "w"}
	if hv.WritesVar() != "w" || len(hv.ReadVars()) != 0 {
		t.Fatalf("havoc accessors broken")
	}
	if asn.String() == "" || asm.String() == "" || hv.String() == "" {
		t.Fatalf("op rendering broken")
	}
}

func TestEdgeString(t *testing.T) {
	c := mustBuild(t, `
global int g;
thread T { g = 1; }
`)
	for _, e := range c.Edges {
		if e.String() == "" {
			t.Fatalf("empty edge render")
		}
	}
}
