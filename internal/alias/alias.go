// Package alias implements the flow-insensitive points-to analysis the
// paper's Section 5 memory model relies on ("we use a flow insensitive
// alias and escape analysis to curtail the possible aliasing relationships
// to be explored"). It is an Andersen-style inclusion analysis over the
// MiniNesC AST.
//
// Addresses only arise from '&g' on globals, so points-to sets range over
// global names. Each global also receives an abstract integer address
// (1-based declaration order) used by the CFA builder to lower loads and
// stores into address-guarded case splits.
package alias

import (
	"fmt"
	"sort"
	"strings"

	"circ/internal/lang"
)

// Result holds the computed points-to sets.
type Result struct {
	// pts maps scoped variable names to sets of pointed-to globals.
	pts map[string]map[string]bool
	// addrTaken is the set of globals whose address is taken anywhere.
	addrTaken map[string]bool
	// addr assigns each global its abstract address.
	addr    map[string]int64
	globals map[string]bool
}

// scoped renders the analysis name of a variable: globals keep their name,
// locals are prefixed by their thread or function scope.
func scoped(scope, name string, globals map[string]bool) string {
	if globals[name] {
		return name
	}
	return scope + "::" + name
}

// retName is the scoped name of a function's return value.
func retName(fn string) string { return fn + "::$ret" }

// Analyze computes points-to sets for the whole program.
func Analyze(p *lang.Program) *Result {
	r := &Result{
		pts:       make(map[string]map[string]bool),
		addrTaken: make(map[string]bool),
		addr:      make(map[string]int64),
		globals:   make(map[string]bool),
	}
	for i, g := range p.Globals {
		r.globals[g.Name] = true
		r.addr[g.Name] = int64(i + 1)
	}

	// Constraint representation: base facts plus inclusion edges, solved
	// by iteration (the sets are tiny in practice).
	type inclusion struct {
		from, to string // pts(from) ⊆ pts(to)
		// derefFrom/derefTo lift the endpoint through a pointer: the
		// constraint applies to every global in pts of that endpoint.
		derefFrom, derefTo bool
	}
	var incs []inclusion
	addPts := func(v, g string) {
		if r.pts[v] == nil {
			r.pts[v] = make(map[string]bool)
		}
		r.pts[v][g] = true
	}

	// flowExpr records constraints for the value of e flowing into target
	// (a scoped name).
	var flowExpr func(scope, target string, e lang.AExpr)
	flowExpr = func(scope, target string, e lang.AExpr) {
		switch g := e.(type) {
		case *lang.AAddr:
			r.addrTaken[g.Name] = true
			addPts(target, g.Name)
		case *lang.AVar:
			incs = append(incs, inclusion{from: scoped(scope, g.Name, r.globals), to: target})
		case *lang.ADeref:
			incs = append(incs, inclusion{from: scoped(scope, g.Ptr, r.globals), to: target, derefFrom: true})
		case *lang.ACall:
			fn := p.Func(g.Name)
			if fn == nil {
				return
			}
			incs = append(incs, inclusion{from: retName(g.Name), to: target})
			for i, a := range g.Args {
				if i < len(fn.Params) {
					flowExpr(scope, scoped(g.Name, fn.Params[i], r.globals), a)
				}
			}
		case *lang.ANondet:
			// A nondeterministic value may equal any taken address: handled
			// after the address-taken set is complete (see below).
			incs = append(incs, inclusion{from: "$nondet", to: target})
		case *lang.ABin:
			// Pointer arithmetic is outside the model: arithmetic results
			// carry no points-to information. (Storing through such a
			// value is rejected by the CFA builder.)
			flowCalls(scope, g.X, flowExpr)
			flowCalls(scope, g.Y, flowExpr)
		case *lang.ANot:
			flowCalls(scope, g.X, flowExpr)
		case *lang.ANeg:
			flowCalls(scope, g.X, flowExpr)
		}
	}

	var walkBlock func(scope string, fn *lang.FuncDecl, b *lang.Block)
	walkStmt := func(scope string, fn *lang.FuncDecl, s lang.Stmt) {
		switch g := s.(type) {
		case *lang.SAssign:
			flowExpr(scope, scoped(scope, g.LHS, r.globals), g.RHS)
		case *lang.SStore:
			// *p = e: e flows into everything p may point to.
			ptr := scoped(scope, g.Ptr, r.globals)
			tmp := fmt.Sprintf("$store%d", len(incs))
			flowExpr(scope, tmp, g.RHS)
			incs = append(incs, inclusion{from: tmp, to: ptr, derefTo: true})
		case *lang.SIf:
			flowCalls(scope, g.Cond, flowExpr)
			walkBlock(scope, fn, g.Then)
			walkBlock(scope, fn, g.Else)
		case *lang.SWhile:
			flowCalls(scope, g.Cond, flowExpr)
			walkBlock(scope, fn, g.Body)
		case *lang.SAtomic:
			walkBlock(scope, fn, g.Body)
		case *lang.SChoose:
			for _, br := range g.Branches {
				walkBlock(scope, fn, br)
			}
		case *lang.SAssume:
			flowCalls(scope, g.Cond, flowExpr)
		case *lang.SReturn:
			if g.Val != nil && fn != nil {
				flowExpr(scope, retName(fn.Name), g.Val)
			}
		case *lang.SCall:
			flowExpr(scope, fmt.Sprintf("$void%d", len(incs)), g.Call)
		}
	}
	walkBlock = func(scope string, fn *lang.FuncDecl, b *lang.Block) {
		if b == nil {
			return
		}
		for _, s := range b.Stmts {
			walkStmt(scope, fn, s)
		}
	}
	for _, fn := range p.Funcs {
		walkBlock(fn.Name, fn, fn.Body)
	}
	for _, th := range p.Threads {
		walkBlock(th.Name, nil, th.Body)
	}

	// Nondeterministic values may hold any taken address.
	for g := range r.addrTaken {
		addPts("$nondet", g)
	}

	// Solve inclusions to a fixpoint.
	for changed := true; changed; {
		changed = false
		propagate := func(from, to string) {
			for g := range r.pts[from] {
				if r.pts[to] == nil || !r.pts[to][g] {
					addPts(to, g)
					changed = true
				}
			}
		}
		for _, inc := range incs {
			switch {
			case inc.derefFrom:
				// pts(*from) ⊆ pts(to): the contents of globals pointed to
				// by from flow to to.
				for g := range r.pts[inc.from] {
					propagate(g, inc.to)
				}
			case inc.derefTo:
				// pts(from) ⊆ pts(*to).
				for g := range r.pts[inc.to] {
					propagate(inc.from, g)
				}
			default:
				propagate(inc.from, inc.to)
			}
		}
	}
	return r
}

// flowCalls visits call subexpressions of a non-pointer expression so their
// argument bindings are still recorded.
func flowCalls(scope string, e lang.AExpr, flowExpr func(scope, target string, e lang.AExpr)) {
	switch g := e.(type) {
	case *lang.ACall:
		flowExpr(scope, "$ignored", g)
	case *lang.ABin:
		flowCalls(scope, g.X, flowExpr)
		flowCalls(scope, g.Y, flowExpr)
	case *lang.ANot:
		flowCalls(scope, g.X, flowExpr)
	case *lang.ANeg:
		flowCalls(scope, g.X, flowExpr)
	}
}

// PointsTo returns the sorted points-to set of the variable (scope is the
// thread or function name for locals; ignored for globals).
func (r *Result) PointsTo(scope, name string) []string {
	set := r.pts[scoped(scope, name, r.globals)]
	out := make([]string, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Addr returns the abstract address of a global (0 if unknown).
func (r *Result) Addr(global string) int64 { return r.addr[global] }

// SplitMangled recovers (scope, base) from a CFA builder mangled name
// "f$v$3"; unmangled names return ("", name).
func SplitMangled(name string) (scope, base string) {
	parts := strings.Split(name, "$")
	if len(parts) == 3 {
		return parts[0], parts[1]
	}
	return "", name
}

func (r *Result) String() string {
	var names []string
	for n := range r.pts {
		if strings.HasPrefix(n, "$") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		var ts []string
		for g := range r.pts[n] {
			ts = append(ts, g)
		}
		sort.Strings(ts)
		fmt.Fprintf(&b, "%s -> {%s}\n", n, strings.Join(ts, ", "))
	}
	return b.String()
}
