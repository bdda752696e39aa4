package sat

import "testing"

// cnfReader decodes fuzz input one byte at a time; an exhausted input
// reads as zeros.
type cnfReader struct{ data []byte }

func (r *cnfReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// bruteSat reports whether some assignment to variables 1..n satisfies
// every clause of cnf.
func bruteSat(n int, cnf [][]Lit) bool {
	holds := func(bits int, l Lit) bool { return (bits>>(l.Var()-1))&1 == 1 != l.Neg() }
next:
	for bits := 0; bits < 1<<n; bits++ {
	clauses:
		for _, cl := range cnf {
			for _, l := range cl {
				if holds(bits, l) {
					continue clauses
				}
			}
			continue next
		}
		return true
	}
	return false
}

// FuzzSAT checks Solve against a brute-force oracle on a CNF over at most
// 10 variables: the answer, and on sat that the model satisfies every
// clause. It then adds one clause, as the DPLL(T) loop adds a blocking
// clause after a refuted model, and checks the second Solve the same way.
//
// Input layout: the variable count (1 + b%10), the clause count
// (b%24), each clause as a length (b%4) and that many literals, then the
// added clause. A literal byte b names variable 1 + b%n, negated when
// (b/n)%2 is 1. After a sat answer the added clause blocks the model on
// the variables v whose bit (v-1)%8 is set in a mask byte (on all of
// them when the mask is 0); otherwise it is read like any other clause.
func FuzzSAT(f *testing.F) {
	f.Add([]byte{})
	// (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ ¬b): unsat only by search.
	f.Add([]byte{1, 4, 2, 0, 1, 2, 2, 1, 2, 0, 3, 2, 2, 3, 0})
	// a → b, b → ¬c and a: sat with c false; the model is then blocked
	// on c alone, which adds c and makes it unsat.
	f.Add([]byte{2, 3, 2, 3, 1, 2, 4, 5, 1, 0, 4})
	// Three free variables; the model is blocked on all of them.
	f.Add([]byte{2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := cnfReader{data: data}
		n := 1 + r.next()%10
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		lits := func(k int) []Lit {
			ls := make([]Lit, k)
			for i := range ls {
				b := r.next()
				ls[i] = MkLit(1+b%n, (b/n)%2 == 1)
			}
			return ls
		}
		var cnf [][]Lit
		for k := r.next() % 24; k > 0; k-- {
			cl := lits(r.next() % 4)
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		}
		solve := func(stage string) bool {
			got := s.Solve()
			if want := bruteSat(n, cnf); got != want {
				t.Fatalf("%s: Solve() on %v = %v, want %v", stage, cnf, got, want)
			}
			if got {
				m := s.Model()
				for _, cl := range cnf {
					ok := false
					for _, l := range cl {
						ok = ok || m[l.Var()] != l.Neg()
					}
					if !ok {
						t.Fatalf("%s: model %v falsifies clause %v of %v", stage, m, cl, cnf)
					}
				}
			}
			return got
		}
		var block []Lit
		if solve("first solve") {
			m, mask := s.Model(), r.next()
			for v := 1; v <= n; v++ {
				if mask&(1<<((v-1)%8)) != 0 || mask == 0 {
					block = append(block, MkLit(v, m[v]))
				}
			}
		} else {
			block = lits(r.next() % 4)
		}
		cnf = append(cnf, block)
		if !s.AddClause(block...) && bruteSat(n, cnf) {
			t.Fatalf("AddClause(%v) reported unsat, but %v is satisfiable", block, cnf)
		}
		solve("after AddClause")
	})
}
