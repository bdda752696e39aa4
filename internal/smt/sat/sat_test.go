package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestEmptySolverIsSat(t *testing.T) {
	s := New()
	if !s.Solve() {
		t.Fatal("empty solver: unsat, want sat")
	}
}

func TestUnitPropagation(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(a, true), MkLit(b, false))
	if !s.Solve() {
		t.Fatal("unsat, want sat")
	}
	m := s.Model()
	if !m[a] || !m[b] {
		t.Fatalf("model = a:%t b:%t, want both true", m[a], m[b])
	}
}

func TestSimpleUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if ok := s.AddClause(MkLit(a, true)); ok {
		t.Fatalf("AddClause of contradicting unit returned true")
	}
	if s.Solve() {
		t.Fatal("sat, want unsat")
	}
}

func TestPigeonhole3Into2(t *testing.T) {
	// 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j. Unsat.
	s := New()
	var p [3][2]int
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < 3; i++ {
		s.AddClause(MkLit(p[i][0], false), MkLit(p[i][1], false))
	}
	for j := 0; j < 2; j++ {
		for i := 0; i < 3; i++ {
			for k := i + 1; k < 3; k++ {
				s.AddClause(MkLit(p[i][j], true), MkLit(p[k][j], true))
			}
		}
	}
	if s.Solve() {
		t.Fatal("pigeonhole: sat, want unsat")
	}
}

func TestPigeonhole4Into4Sat(t *testing.T) {
	s := New()
	n := 4
	p := make([][]int, n)
	for i := range p {
		p[i] = make([]int, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < n; i++ {
		lits := make([]Lit, n)
		for j := 0; j < n; j++ {
			lits[j] = MkLit(p[i][j], false)
		}
		s.AddClause(lits...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				s.AddClause(MkLit(p[i][j], true), MkLit(p[k][j], true))
			}
		}
	}
	if !s.Solve() {
		t.Fatal("unsat, want sat")
	}
	// Verify the model is a valid assignment.
	m := s.Model()
	for i := 0; i < n; i++ {
		cnt := 0
		for j := 0; j < n; j++ {
			if m[p[i][j]] {
				cnt++
			}
		}
		if cnt == 0 {
			t.Fatalf("pigeon %d has no hole in model", i)
		}
	}
}

func TestImplicationChain(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	c := s.NewVar()
	// a -> b, b -> !c
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(b, true), MkLit(c, true))
	if !s.Solve() {
		t.Fatal("unsat, want sat")
	}
	// a and c: contradiction through the chain.
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(c, false))
	if s.Solve() {
		t.Fatal("sat, want unsat with a and c")
	}
}

func TestModelSatisfiesAllClauses(t *testing.T) {
	// Randomised 3-SAT at a satisfiable density; validate returned models.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		s := New()
		n := 30
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		for k := 0; k < 80; k++ {
			var cl []Lit
			for j := 0; j < 3; j++ {
				v := rng.Intn(n) + 1
				cl = append(cl, MkLit(v, rng.Intn(2) == 0))
			}
			clauses = append(clauses, cl)
			s.AddClause(cl...)
		}
		if !s.Solve() {
			continue // low density but can still be unsat; skip
		}
		m := s.Model()
		for ci, cl := range clauses {
			ok := false
			for _, l := range cl {
				if m[l.Var()] != l.Neg() {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("trial %d: model does not satisfy clause %d: %v", trial, ci, cl)
			}
		}
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(a, true)) // tautology, dropped
	s.AddClause(MkLit(b, false), MkLit(b, false))
	if !s.Solve() {
		t.Fatal("unsat, want sat")
	}
	if !s.Model()[b] {
		t.Fatalf("b not forced true by duplicate-literal unit clause")
	}
}

func TestManyRestartStress(t *testing.T) {
	// A chain of xor-ish constraints: propagation alone decides it, and a
	// unit clause that breaks the chain is refuted.
	s := New()
	n := 40
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		// v[i] != v[i+1]
		s.AddClause(MkLit(vars[i], false), MkLit(vars[i+1], false))
		s.AddClause(MkLit(vars[i], true), MkLit(vars[i+1], true))
	}
	if !s.Solve() {
		t.Fatal("alternating chain: unsat, want sat")
	}
	m := s.Model()
	for i := 0; i+1 < n; i++ {
		if m[vars[i]] == m[vars[i+1]] {
			t.Fatalf("chain broken at %d", i)
		}
	}
	// Pin the two ends to equal values with even distance: unsat when the
	// chain length forces alternation parity.
	s.AddClause(MkLit(vars[0], false))
	s.AddClause(MkLit(vars[1], false))
	if s.Solve() {
		t.Fatal("sat, want unsat (adjacent equal)")
	}
}

func ExampleSolver() {
	s := New()
	x := s.NewVar()
	y := s.NewVar()
	s.AddClause(MkLit(x, false), MkLit(y, false)) // x || y
	s.AddClause(MkLit(x, true))                   // !x
	fmt.Println(s.Solve())
	fmt.Println(s.Model()[y])
	// Output:
	// true
	// true
}

func BenchmarkPigeonhole5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		n := 5
		p := make([][]int, n+1)
		for i := range p {
			p[i] = make([]int, n)
			for j := range p[i] {
				p[i][j] = s.NewVar()
			}
		}
		for i := 0; i <= n; i++ {
			lits := make([]Lit, n)
			for j := 0; j < n; j++ {
				lits[j] = MkLit(p[i][j], false)
			}
			s.AddClause(lits...)
		}
		for j := 0; j < n; j++ {
			for i := 0; i <= n; i++ {
				for k := i + 1; k <= n; k++ {
					s.AddClause(MkLit(p[i][j], true), MkLit(p[k][j], true))
				}
			}
		}
		if s.Solve() {
			b.Fatal("pigeonhole should be unsat")
		}
	}
}

func BenchmarkRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		s := New()
		n := 50
		for v := 0; v < n; v++ {
			s.NewVar()
		}
		for k := 0; k < 180; k++ {
			s.AddClause(
				MkLit(rng.Intn(n)+1, rng.Intn(2) == 0),
				MkLit(rng.Intn(n)+1, rng.Intn(2) == 0),
				MkLit(rng.Intn(n)+1, rng.Intn(2) == 0),
			)
		}
		s.Solve()
	}
}
