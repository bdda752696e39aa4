package lang

import (
	"fmt"
	"strings"
)

// Program is a parsed MiniNesC compilation unit.
type Program struct {
	Globals []*GlobalDecl
	Funcs   []*FuncDecl
	Threads []*ThreadDecl
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Thread returns the thread with the given name, or nil.
func (p *Program) Thread(name string) *ThreadDecl {
	for _, t := range p.Threads {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// GlobalDecl declares a shared integer variable, zero-initialised unless an
// explicit initialiser is given.
type GlobalDecl struct {
	Name string
	Init int64
	Pos  Pos
}

// FuncDecl declares a function. ReturnsValue is true for `int` functions.
// Functions are inlined at CFA construction; recursion is rejected.
type FuncDecl struct {
	Name         string
	Params       []string
	Locals       []*LocalDecl
	Body         *Block
	ReturnsValue bool
	Pos          Pos
}

// ThreadDecl declares a thread body.
type ThreadDecl struct {
	Name   string
	Locals []*LocalDecl
	Body   *Block
	Pos    Pos
}

// LocalDecl declares a thread- or function-local integer variable.
type LocalDecl struct {
	Name string
	Pos  Pos
}

// Block is a statement sequence.
type Block struct {
	Stmts []Stmt
}

// Stmt is a statement node.
type Stmt interface {
	Position() Pos
	isStmt()
}

// SAssign assigns RHS to a variable. RHS may be the nondeterministic
// expression (ANondet), modelling havoc.
type SAssign struct {
	LHS string
	RHS AExpr
	Pos Pos
}

// SIf is a conditional.
type SIf struct {
	Cond AExpr
	Then *Block
	Else *Block // may be nil
	Pos  Pos
}

// SWhile is a loop.
type SWhile struct {
	Cond AExpr
	Body *Block
	Pos  Pos
}

// SAtomic is a nesC atomic section: its body executes without preemption.
type SAtomic struct {
	Body *Block
	Pos  Pos
}

// SChoose is nondeterministic choice among branches.
type SChoose struct {
	Branches []*Block
	Pos      Pos
}

// SSkip is a no-op.
type SSkip struct {
	Pos Pos
}

// SAssume blocks until the condition holds.
type SAssume struct {
	Cond AExpr
	Pos  Pos
}

// SReturn returns from a function; Val is nil for void returns.
type SReturn struct {
	Val AExpr
	Pos Pos
}

// SCall invokes a function for effect.
type SCall struct {
	Call *ACall
	Pos  Pos
}

// SStore writes through a pointer: *Ptr = RHS.
type SStore struct {
	Ptr string
	RHS AExpr
	Pos Pos
}

// SBreak exits the innermost loop.
type SBreak struct {
	Pos Pos
}

// SContinue restarts the innermost loop.
type SContinue struct {
	Pos Pos
}

func (s *SAssign) Position() Pos   { return s.Pos }
func (s *SIf) Position() Pos       { return s.Pos }
func (s *SWhile) Position() Pos    { return s.Pos }
func (s *SAtomic) Position() Pos   { return s.Pos }
func (s *SChoose) Position() Pos   { return s.Pos }
func (s *SSkip) Position() Pos     { return s.Pos }
func (s *SAssume) Position() Pos   { return s.Pos }
func (s *SReturn) Position() Pos   { return s.Pos }
func (s *SCall) Position() Pos     { return s.Pos }
func (s *SStore) Position() Pos    { return s.Pos }
func (s *SBreak) Position() Pos    { return s.Pos }
func (s *SContinue) Position() Pos { return s.Pos }

func (*SAssign) isStmt()   {}
func (*SIf) isStmt()       {}
func (*SWhile) isStmt()    {}
func (*SAtomic) isStmt()   {}
func (*SChoose) isStmt()   {}
func (*SSkip) isStmt()     {}
func (*SAssume) isStmt()   {}
func (*SReturn) isStmt()   {}
func (*SCall) isStmt()     {}
func (*SStore) isStmt()    {}
func (*SBreak) isStmt()    {}
func (*SContinue) isStmt() {}

// AExpr is a surface expression node. Unlike expr.Expr it may contain
// function calls and the nondeterministic '*', which are eliminated during
// CFA construction.
type AExpr interface {
	Position() Pos
	String() string
	isAExpr()
}

// ALit is an integer literal.
type ALit struct {
	Value int64
	Pos   Pos
}

// AVar is a variable reference.
type AVar struct {
	Name string
	Pos  Pos
}

// ANondet is the nondeterministic value '*'.
type ANondet struct {
	Pos Pos
}

// ABin is a binary operation; Op is one of the token kinds Plus, Minus,
// Star, EqEq, NotEq, Lt, Le, Gt, Ge, AndAnd, OrOr.
type ABin struct {
	Op   Kind
	X, Y AExpr
	Pos  Pos
}

// ANot is logical negation.
type ANot struct {
	X   AExpr
	Pos Pos
}

// ANeg is arithmetic negation.
type ANeg struct {
	X   AExpr
	Pos Pos
}

// ACall is a function call.
type ACall struct {
	Name string
	Args []AExpr
	Pos  Pos
}

// AAddr is the address of a global variable, '&g'. Addresses are abstract
// integer constants; only globals may have their address taken (threads do
// not reference each other's locals).
type AAddr struct {
	Name string
	Pos  Pos
}

// ADeref is a pointer dereference, '*p'. The CFA builder expands it into a
// case split over the points-to set computed by the alias analysis.
type ADeref struct {
	Ptr string // the pointer variable
	Pos Pos
}

func (e *ALit) Position() Pos    { return e.Pos }
func (e *AVar) Position() Pos    { return e.Pos }
func (e *ANondet) Position() Pos { return e.Pos }
func (e *ABin) Position() Pos    { return e.Pos }
func (e *ANot) Position() Pos    { return e.Pos }
func (e *ANeg) Position() Pos    { return e.Pos }
func (e *ACall) Position() Pos   { return e.Pos }
func (e *AAddr) Position() Pos   { return e.Pos }
func (e *ADeref) Position() Pos  { return e.Pos }

func (*ALit) isAExpr()    {}
func (*AVar) isAExpr()    {}
func (*ANondet) isAExpr() {}
func (*ABin) isAExpr()    {}
func (*ANot) isAExpr()    {}
func (*ANeg) isAExpr()    {}
func (*ACall) isAExpr()   {}
func (*AAddr) isAExpr()   {}
func (*ADeref) isAExpr()  {}

func (e *ALit) String() string    { return fmt.Sprintf("%d", e.Value) }
func (e *AVar) String() string    { return e.Name }
func (e *ANondet) String() string { return "*" }

func binOpText(op Kind) string {
	switch op {
	case Plus:
		return "+"
	case Minus:
		return "-"
	case Star:
		return "*"
	case EqEq:
		return "=="
	case NotEq:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case AndAnd:
		return "&&"
	case OrOr:
		return "||"
	}
	return op.String()
}

func (e *ABin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.X, binOpText(e.Op), e.Y)
}

func (e *ANot) String() string { return fmt.Sprintf("!%s", e.X) }
func (e *ANeg) String() string { return fmt.Sprintf("-%s", e.X) }

func (e *AAddr) String() string  { return "&" + e.Name }
func (e *ADeref) String() string { return "*" + e.Ptr }

func (e *ACall) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
}
