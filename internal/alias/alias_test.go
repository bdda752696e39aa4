package alias

import (
	"testing"

	"circ/internal/lang"
)

func analyze(t *testing.T, src string) *Result {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Analyze(p)
}

func TestDirectAddressOf(t *testing.T) {
	r := analyze(t, `
global int x;
global int y;
thread T {
  local int p;
  p = &x;
  *p = 1;
}
`)
	pts := r.PointsTo("T", "p")
	if len(pts) != 1 || pts[0] != "x" {
		t.Fatalf("pts(p) = %v, want [x]", pts)
	}
	if r.Addr("x") != 1 || r.Addr("y") != 2 {
		t.Fatalf("addresses: x=%d y=%d", r.Addr("x"), r.Addr("y"))
	}
}

func TestCopyPropagation(t *testing.T) {
	r := analyze(t, `
global int x;
global int y;
thread T {
  local int p;
  local int q;
  p = &x;
  q = p;
  if (1 == 1) { q = &y; }
}
`)
	pts := r.PointsTo("T", "q")
	if len(pts) != 2 || pts[0] != "x" || pts[1] != "y" {
		t.Fatalf("pts(q) = %v, want [x y]", pts)
	}
}

func TestThroughGlobalCell(t *testing.T) {
	// A pointer stored in a global and reloaded: g holds &x, q = g.
	r := analyze(t, `
global int x;
global int cell;
thread T {
  local int q;
  cell = &x;
  q = cell;
  *q = 5;
}
`)
	if pts := r.PointsTo("", "cell"); len(pts) != 1 || pts[0] != "x" {
		t.Fatalf("pts(cell) = %v", pts)
	}
	if pts := r.PointsTo("T", "q"); len(pts) != 1 || pts[0] != "x" {
		t.Fatalf("pts(q) = %v", pts)
	}
}

func TestStoreThroughPointerToCell(t *testing.T) {
	// *p = &y where p -> {cell}: cell may point to y.
	r := analyze(t, `
global int y;
global int cell;
thread T {
  local int p;
  local int q;
  p = &cell;
  *p = &y;
  q = *p;
}
`)
	if pts := r.PointsTo("", "cell"); len(pts) != 1 || pts[0] != "y" {
		t.Fatalf("pts(cell) = %v, want [y]", pts)
	}
	// Load through p: q gets cell's contents.
	if pts := r.PointsTo("T", "q"); len(pts) != 1 || pts[0] != "y" {
		t.Fatalf("pts(q) = %v, want [y]", pts)
	}
}

func TestFunctionParamAndReturn(t *testing.T) {
	r := analyze(t, `
global int x;
int id(p) { return p; }
thread T {
  local int q;
  q = id(&x);
}
`)
	if pts := r.PointsTo("id", "p"); len(pts) != 1 || pts[0] != "x" {
		t.Fatalf("pts(id::p) = %v", pts)
	}
	if pts := r.PointsTo("T", "q"); len(pts) != 1 || pts[0] != "x" {
		t.Fatalf("pts(q) = %v", pts)
	}
}

func TestNondetPointsEverywhereTaken(t *testing.T) {
	r := analyze(t, `
global int x;
global int y;
thread T {
  local int p;
  local int q;
  p = &x;
  q = *;
}
`)
	// q may hold any taken address: only &x is taken.
	if pts := r.PointsTo("T", "q"); len(pts) != 1 || pts[0] != "x" {
		t.Fatalf("pts(q) = %v, want [x]", pts)
	}
}

func TestArithmeticCarriesNothing(t *testing.T) {
	r := analyze(t, `
global int x;
thread T {
  local int p;
  local int q;
  p = &x;
  q = p + 1;
}
`)
	if pts := r.PointsTo("T", "q"); len(pts) != 0 {
		t.Fatalf("pts(q) = %v, want empty (pointer arithmetic unsupported)", pts)
	}
}

func TestSplitMangled(t *testing.T) {
	if s, b := SplitMangled("f$p$3"); s != "f" || b != "p" {
		t.Fatalf("SplitMangled = %q %q", s, b)
	}
	if s, b := SplitMangled("plain"); s != "" || b != "plain" {
		t.Fatalf("SplitMangled plain = %q %q", s, b)
	}
}

func TestStringRender(t *testing.T) {
	r := analyze(t, `
global int x;
thread T {
  local int p;
  p = &x;
}
`)
	if r.String() == "" {
		t.Fatalf("empty render")
	}
}
