package cfa

import (
	"fmt"

	"circ/internal/alias"
	"circ/internal/expr"
	"circ/internal/lang"
)

// Build constructs the CFA for the named thread of the program, inlining
// all function calls. If threadName is empty, the program's single thread
// is used.
func Build(prog *lang.Program, threadName string) (*CFA, error) {
	return BuildAliased(prog, threadName, alias.Analyze(prog))
}

// BuildAliased is Build with the program's points-to sets supplied, so a
// caller building several threads of one program analyses its aliases
// once rather than once per thread. aliases must be alias.Analyze(prog).
func BuildAliased(prog *lang.Program, threadName string, aliases *alias.Result) (*CFA, error) {
	var th *lang.ThreadDecl
	if threadName == "" {
		if len(prog.Threads) != 1 {
			return nil, fmt.Errorf("cfa: program has %d threads; specify one", len(prog.Threads))
		}
		th = prog.Threads[0]
	} else {
		th = prog.Thread(threadName)
		if th == nil {
			return nil, fmt.Errorf("cfa: no thread named %q", threadName)
		}
	}
	b := &builder{
		prog:    prog,
		cfa:     &CFA{Name: th.Name},
		aliases: aliases,
		scope:   th.Name,
	}
	for _, g := range prog.Globals {
		b.cfa.Globals = append(b.cfa.Globals, g.Name)
	}
	for _, l := range th.Locals {
		b.cfa.Locals = append(b.cfa.Locals, l.Name)
	}
	entry := b.newLoc()
	b.cfa.Entry = entry
	end, err := b.block(th.Body, entry, loopCtx{})
	if err != nil {
		return nil, err
	}
	_ = end // a thread that falls off its body simply halts
	b.cfa.finish()
	return b.cfa, nil
}

type loopCtx struct {
	breakTo    Loc
	continueTo Loc
	active     bool
	// fnExit is the current function-inlining exit; returns jump there.
	fnExit    Loc
	fnRet     string // name of the return temp, "" for void
	inFunc    bool
	atomDepth int
}

type builder struct {
	prog    *lang.Program
	cfa     *CFA
	aliases *alias.Result
	scope   string // thread name, for alias lookups of unmangled locals
	inlines int
	derefs  int
	atom    int // current atomic nesting depth
}

// ptsOf returns the points-to set of a (possibly inlining-mangled) pointer
// variable.
func (b *builder) ptsOf(ptrVar string) []string {
	scope, base := alias.SplitMangled(ptrVar)
	if scope == "" {
		scope = b.scope
	}
	return b.aliases.PointsTo(scope, base)
}

func (b *builder) newLoc() Loc {
	b.cfa.Atomic = append(b.cfa.Atomic, b.atom > 0)
	return Loc(len(b.cfa.Atomic) - 1)
}

func (b *builder) edge(src, dst Loc, op Op, pos lang.Pos) {
	b.cfa.Edges = append(b.cfa.Edges, &Edge{Src: src, Dst: dst, Op: op, Pos: pos})
}

func (b *builder) addLocal(name string) {
	b.cfa.Locals = append(b.cfa.Locals, name)
}

// block lowers a statement block starting at from; it returns the location
// reached after the block.
func (b *builder) block(blk *lang.Block, from Loc, ctx loopCtx) (Loc, error) {
	cur := from
	if blk == nil {
		return cur, nil
	}
	for _, s := range blk.Stmts {
		next, err := b.stmt(s, cur, ctx)
		if err != nil {
			return 0, err
		}
		cur = next
	}
	return cur, nil
}

func (b *builder) stmt(s lang.Stmt, from Loc, ctx loopCtx) (Loc, error) {
	switch g := s.(type) {
	case *lang.SSkip:
		return from, nil

	case *lang.SAssign:
		if _, ok := g.RHS.(*lang.ANondet); ok {
			to := b.newLoc()
			b.edge(from, to, Op{Kind: OpHavoc, LHS: g.LHS}, g.Pos)
			return to, nil
		}
		rhs, cur, err := b.term(g.RHS, from, ctx)
		if err != nil {
			return 0, err
		}
		to := b.newLoc()
		b.edge(cur, to, Op{Kind: OpAssign, LHS: g.LHS, RHS: rhs}, g.Pos)
		return to, nil

	case *lang.SIf:
		cond, cur, err := b.cond(g.Cond, from, ctx)
		if err != nil {
			return 0, err
		}
		join := b.newLoc()
		// Then branch.
		if thenEntry, ok := b.assumeEdge(cur, cond, g.Pos); ok {
			end, err := b.block(g.Then, thenEntry, ctx)
			if err != nil {
				return 0, err
			}
			b.edge(end, join, skipOp(), g.Pos)
		}
		// Else branch.
		if elseEntry, ok := b.assumeEdge(cur, expr.Negate(cond), g.Pos); ok {
			end, err := b.block(g.Else, elseEntry, ctx)
			if err != nil {
				return 0, err
			}
			b.edge(end, join, skipOp(), g.Pos)
		}
		return join, nil

	case *lang.SWhile:
		head := b.newLoc()
		b.edge(from, head, skipOp(), g.Pos)
		cond, condEnd, err := b.cond(g.Cond, head, ctx)
		if err != nil {
			return 0, err
		}
		after := b.newLoc()
		if bodyEntry, ok := b.assumeEdge(condEnd, cond, g.Pos); ok {
			inner := ctx
			inner.breakTo = after
			inner.continueTo = head
			inner.active = true
			bodyEnd, err := b.block(g.Body, bodyEntry, inner)
			if err != nil {
				return 0, err
			}
			b.edge(bodyEnd, head, skipOp(), g.Pos)
		}
		if exitLoc, ok := b.assumeEdge(condEnd, expr.Negate(cond), g.Pos); ok {
			b.edge(exitLoc, after, skipOp(), g.Pos)
		}
		return after, nil

	case *lang.SAtomic:
		b.atom++
		entry := b.newLoc()
		b.edge(from, entry, skipOp(), g.Pos)
		end, err := b.block(g.Body, entry, ctx)
		b.atom--
		if err != nil {
			return 0, err
		}
		after := b.newLoc()
		b.edge(end, after, skipOp(), g.Pos)
		return after, nil

	case *lang.SChoose:
		join := b.newLoc()
		for _, br := range g.Branches {
			entry := b.newLoc()
			b.edge(from, entry, skipOp(), g.Pos)
			end, err := b.block(br, entry, ctx)
			if err != nil {
				return 0, err
			}
			b.edge(end, join, skipOp(), g.Pos)
		}
		return join, nil

	case *lang.SAssume:
		cond, cur, err := b.cond(g.Cond, from, ctx)
		if err != nil {
			return 0, err
		}
		to := b.newLoc()
		b.edge(cur, to, Op{Kind: OpAssume, Pred: cond}, g.Pos)
		return to, nil

	case *lang.SStore:
		// *p = e: case split over the points-to set of p (Section 5
		// memory model). Each branch assumes p holds the target's address
		// and performs a direct write, so downstream race checking sees
		// pointer stores as guarded writes to concrete globals.
		pts := b.ptsOf(g.Ptr)
		if len(pts) == 0 {
			return 0, fmt.Errorf("%s: store through %q, which has an empty points-to set", g.Pos, g.Ptr)
		}
		var rhs expr.Expr
		cur := from
		havoc := false
		if _, ok := g.RHS.(*lang.ANondet); ok {
			havoc = true
		} else {
			var err error
			rhs, cur, err = b.term(g.RHS, from, ctx)
			if err != nil {
				return 0, err
			}
		}
		join := b.newLoc()
		for _, tgt := range pts {
			guard := expr.Eq(expr.V(g.Ptr), expr.Num(b.aliases.Addr(tgt)))
			l1, ok := b.assumeEdge(cur, guard, g.Pos)
			if !ok {
				continue
			}
			if havoc {
				b.edge(l1, join, Op{Kind: OpHavoc, LHS: tgt}, g.Pos)
			} else {
				b.edge(l1, join, Op{Kind: OpAssign, LHS: tgt, RHS: rhs}, g.Pos)
			}
		}
		return join, nil

	case *lang.SBreak:
		if !ctx.active {
			return 0, fmt.Errorf("%s: break outside loop", g.Pos)
		}
		b.edge(from, ctx.breakTo, skipOp(), g.Pos)
		// Dead continuation location.
		return b.deadLoc(), nil

	case *lang.SContinue:
		if !ctx.active {
			return 0, fmt.Errorf("%s: continue outside loop", g.Pos)
		}
		b.edge(from, ctx.continueTo, skipOp(), g.Pos)
		return b.deadLoc(), nil

	case *lang.SReturn:
		if !ctx.inFunc {
			return 0, fmt.Errorf("%s: return outside function", g.Pos)
		}
		cur := from
		if g.Val != nil {
			rhs, c2, err := b.term(g.Val, from, ctx)
			if err != nil {
				return 0, err
			}
			mid := b.newLoc()
			b.edge(c2, mid, Op{Kind: OpAssign, LHS: ctx.fnRet, RHS: rhs}, g.Pos)
			cur = mid
		}
		b.edge(cur, ctx.fnExit, skipOp(), g.Pos)
		return b.deadLoc(), nil

	case *lang.SCall:
		_, cur, err := b.inlineCall(g.Call, from, ctx)
		return cur, err
	}
	return 0, fmt.Errorf("%s: unknown statement %T", s.Position(), s)
}

// deadLoc returns a fresh location with no incoming edges; code lowered
// after a break/continue/return is unreachable.
func (b *builder) deadLoc() Loc { return b.newLoc() }

func skipOp() Op { return Op{Kind: OpAssume, Pred: expr.TrueExpr} }

// assumeEdge adds an assume(pred) edge from cur to a fresh location; edges
// whose predicate simplifies to false are elided (ok=false).
func (b *builder) assumeEdge(cur Loc, pred expr.Expr, pos lang.Pos) (Loc, bool) {
	p := expr.Simplify(pred)
	if bb, ok := p.(expr.Bool); ok && !bb.Value {
		return 0, false
	}
	to := b.newLoc()
	b.edge(cur, to, Op{Kind: OpAssume, Pred: p}, pos)
	return to, true
}

// term lowers a surface term to an expr.Expr, emitting edges for any
// inlined calls. It returns the lowered term and the control location
// after evaluation.
func (b *builder) term(e lang.AExpr, from Loc, ctx loopCtx) (expr.Expr, Loc, error) {
	switch g := e.(type) {
	case *lang.ALit:
		return expr.Num(g.Value), from, nil
	case *lang.AVar:
		return expr.V(g.Name), from, nil
	case *lang.ANeg:
		x, cur, err := b.term(g.X, from, ctx)
		if err != nil {
			return nil, 0, err
		}
		return expr.Sub(expr.Num(0), x), cur, nil
	case *lang.ABin:
		x, cur, err := b.term(g.X, from, ctx)
		if err != nil {
			return nil, 0, err
		}
		y, cur2, err := b.term(g.Y, cur, ctx)
		if err != nil {
			return nil, 0, err
		}
		switch g.Op {
		case lang.Plus:
			return expr.Add(x, y), cur2, nil
		case lang.Minus:
			return expr.Sub(x, y), cur2, nil
		case lang.Star:
			return expr.Mul(x, y), cur2, nil
		}
		return nil, 0, fmt.Errorf("%s: boolean operator in term context", g.Pos)
	case *lang.ACall:
		ret, cur, err := b.inlineCall(g, from, ctx)
		if err != nil {
			return nil, 0, err
		}
		if ret == "" {
			return nil, 0, fmt.Errorf("%s: void function %q used as a value", g.Pos, g.Name)
		}
		return expr.V(ret), cur, nil
	case *lang.AAddr:
		a := b.aliases.Addr(g.Name)
		if a == 0 {
			return nil, 0, fmt.Errorf("%s: cannot take the address of %q", g.Pos, g.Name)
		}
		return expr.Num(a), from, nil
	case *lang.ADeref:
		// t = *p: case split over the points-to set, loading the target
		// into a fresh temporary.
		pts := b.ptsOf(g.Ptr)
		if len(pts) == 0 {
			return nil, 0, fmt.Errorf("%s: dereference of %q, which has an empty points-to set", g.Pos, g.Ptr)
		}
		b.derefs++
		tmp := fmt.Sprintf("deref%d", b.derefs)
		b.addLocal(tmp)
		join := b.newLoc()
		for _, tgt := range pts {
			guard := expr.Eq(expr.V(g.Ptr), expr.Num(b.aliases.Addr(tgt)))
			l1, ok := b.assumeEdge(from, guard, g.Pos)
			if !ok {
				continue
			}
			b.edge(l1, join, Op{Kind: OpAssign, LHS: tmp, RHS: expr.V(tgt)}, g.Pos)
		}
		return expr.V(tmp), join, nil
	case *lang.ANondet:
		return nil, 0, fmt.Errorf("%s: '*' only allowed as a whole assignment right-hand side", g.Pos)
	}
	return nil, 0, fmt.Errorf("%s: unknown expression %T", e.Position(), e)
}

// cond lowers a surface condition to a formula, emitting edges for inlined
// calls in its subterms (evaluated left to right before the branch).
func (b *builder) cond(e lang.AExpr, from Loc, ctx loopCtx) (expr.Expr, Loc, error) {
	switch g := e.(type) {
	case *lang.ANot:
		f, cur, err := b.cond(g.X, from, ctx)
		if err != nil {
			return nil, 0, err
		}
		return expr.Negate(f), cur, nil
	case *lang.ABin:
		switch g.Op {
		case lang.AndAnd:
			x, cur, err := b.cond(g.X, from, ctx)
			if err != nil {
				return nil, 0, err
			}
			y, cur2, err := b.cond(g.Y, cur, ctx)
			if err != nil {
				return nil, 0, err
			}
			return expr.Conj(x, y), cur2, nil
		case lang.OrOr:
			x, cur, err := b.cond(g.X, from, ctx)
			if err != nil {
				return nil, 0, err
			}
			y, cur2, err := b.cond(g.Y, cur, ctx)
			if err != nil {
				return nil, 0, err
			}
			return expr.Disj(x, y), cur2, nil
		case lang.EqEq, lang.NotEq, lang.Lt, lang.Le, lang.Gt, lang.Ge:
			x, cur, err := b.term(g.X, from, ctx)
			if err != nil {
				return nil, 0, err
			}
			y, cur2, err := b.term(g.Y, cur, ctx)
			if err != nil {
				return nil, 0, err
			}
			var op expr.CmpOp
			switch g.Op {
			case lang.EqEq:
				op = expr.OpEq
			case lang.NotEq:
				op = expr.OpNe
			case lang.Lt:
				op = expr.OpLt
			case lang.Le:
				op = expr.OpLe
			case lang.Gt:
				op = expr.OpGt
			case lang.Ge:
				op = expr.OpGe
			}
			return expr.Compare(op, x, y), cur2, nil
		}
	}
	// Arithmetic condition t is sugar for t != 0.
	t, cur, err := b.term(e, from, ctx)
	if err != nil {
		return nil, 0, err
	}
	return expr.Ne(t, expr.Num(0)), cur, nil
}

// inlineCall inlines a call to a function, returning the name of the
// return-value temporary ("" for void) and the location after the call.
func (b *builder) inlineCall(c *lang.ACall, from Loc, ctx loopCtx) (string, Loc, error) {
	fn := b.prog.Func(c.Name)
	if fn == nil {
		return "", 0, fmt.Errorf("%s: call to undeclared function %q", c.Pos, c.Name)
	}
	if len(c.Args) != len(fn.Params) {
		return "", 0, fmt.Errorf("%s: %q expects %d argument(s), got %d", c.Pos, c.Name, len(fn.Params), len(c.Args))
	}
	b.inlines++
	inst := b.inlines
	mangle := func(v string) string { return fmt.Sprintf("%s$%s$%d", fn.Name, v, inst) }

	// Parameter temporaries.
	cur := from
	rename := make(map[string]string, len(fn.Params)+len(fn.Locals))
	for i, p := range fn.Params {
		pv := mangle(p)
		rename[p] = pv
		b.addLocal(pv)
		arg, c2, err := b.term(c.Args[i], cur, ctx)
		if err != nil {
			return "", 0, err
		}
		to := b.newLoc()
		b.edge(c2, to, Op{Kind: OpAssign, LHS: pv, RHS: arg}, c.Pos)
		cur = to
	}
	for _, l := range fn.Locals {
		lv := mangle(l.Name)
		rename[l.Name] = lv
		b.addLocal(lv)
	}
	ret := ""
	if fn.ReturnsValue {
		ret = mangle("ret")
		b.addLocal(ret)
	}

	exit := b.newLoc()
	inner := loopCtx{
		inFunc: true,
		fnExit: exit,
		fnRet:  ret,
		// break/continue do not escape the function body.
	}
	body := renameBlock(fn.Body, rename)
	end, err := b.block(body, cur, inner)
	if err != nil {
		return "", 0, err
	}
	// Implicit return: int functions yield 0, matching C's (undefined but
	// common) zero-on-fallthrough modelling choice; void simply exits.
	if ret != "" {
		mid := b.newLoc()
		b.edge(end, mid, Op{Kind: OpAssign, LHS: ret, RHS: expr.Num(0)}, c.Pos)
		end = mid
	}
	b.edge(end, exit, skipOp(), c.Pos)
	return ret, exit, nil
}
