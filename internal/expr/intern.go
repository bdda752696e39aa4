package expr

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// This file implements hash-consing for expressions: a process-wide
// interning arena that assigns every structurally-distinct *canonical*
// expression a unique 32-bit ID and a precomputed 64-bit structural hash.
//
// Interning happens through smart constructors that canonicalise as they
// build: constants fold, And/Or flatten, deduplicate, sort their children
// and collapse complementary literals, and comparisons normalise (Gt/Ge
// rewrite to Lt/Le by swapping operands), all preserving logical
// equivalence. Consequently
//
//   - equality of canonical forms is ID equality (O(1)),
//   - map keys and cache keys are IDs, not recursive Key() strings,
//   - obvious tautologies/contradictions (x ∧ ¬x, 3 < 2) intern directly
//     to the boolean constants, giving SMT callers a syntactic sat/unsat
//     fast path that never touches a solver.
//
// Children are ordered by structural hash (ties broken by canonical key),
// which is a function of content only — canonical forms are identical
// across runs and across goroutine interleavings, so verdicts derived
// from them stay deterministic at any parallelism. ID *values* are
// process-local (assigned in first-intern order) and must never leak into
// anything order-sensitive; the codebase only uses them as cache keys.
//
// The arena is append-only and guarded by a single RWMutex: reads (the
// overwhelming majority — lookups and re-interning of existing structure)
// take the read lock, inserts double-check under the write lock. Every
// lock operation is shared-memory traffic between concurrent jobs, so a
// constructor reads what it needs in one locked pass: an And/Or is
// canonicalised from a single read of its children's hashes and memoised
// negations (see internNary). Memory is monotonic for the process
// lifetime, which is the right trade for an analysis engine that
// re-queries the same predicate cubes thousands of times.

// ID is the arena identity of a canonical interned expression. The zero
// ID is invalid (NoID); valid IDs start at 1.
type ID uint32

// NoID is the invalid ID.
const NoID ID = 0

// Kind discriminates interned node shapes. It mirrors the concrete Expr
// types one-to-one.
type Kind uint8

// Node kinds.
const (
	KindInvalid Kind = iota
	KindInt
	KindVar
	KindBin
	KindBool
	KindCmp
	KindNot
	KindAnd
	KindOr
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindVar:
		return "var"
	case KindBin:
		return "bin"
	case KindBool:
		return "bool"
	case KindCmp:
		return "cmp"
	case KindNot:
		return "not"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// inode is one arena entry. Nodes are immutable after insertion except
// for the memoised negation link, which is written under the arena lock.
type inode struct {
	kind Kind
	op   int8   // BinOp or CmpOp, by kind
	ival int64  // KindInt value; KindBool truth (0/1)
	name string // KindVar
	kids []ID   // children, canonical order; never mutated after insert
	hash uint64 // structural hash (content-only, stable across runs)
	rep  Expr   // canonical representative tree (children shared)
	neg  ID     // memoised logical negation; NoID until first computed
}

type arena struct {
	mu     sync.RWMutex
	nodes  []inode
	byHash map[uint64][]ID
	ints   map[int64]ID
	vars   map[string]ID
	// bytes is a running estimate of the arena's memory footprint,
	// maintained at insert so observability reads are O(1).
	bytes int64
}

var ar = &arena{
	byHash: make(map[uint64][]ID),
	ints:   make(map[int64]ID),
	vars:   make(map[string]ID),
}

var falseID, trueID ID

func init() {
	falseID = internLeaf(KindBool, 0, "", FalseExpr)
	trueID = internLeaf(KindBool, 1, "", TrueExpr)
}

// BoolID returns the ID of a boolean constant. It never locks.
func BoolID(v bool) ID {
	if v {
		return trueID
	}
	return falseID
}

// --- structural hashing ---

// mix64 folds x into h with strong avalanche, so child order and node
// content both shape the result. The constants are the usual splitmix64
// multipliers.
func mix64(h, x uint64) uint64 {
	h ^= x
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

func hashSeed(kind Kind, op int8) uint64 {
	return mix64(0x2545F4914F6CDD1D, uint64(kind)<<8|uint64(uint8(op)))
}

func hashString(kind Kind, s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(hashSeed(kind, 0), h)
}

func hashInt(kind Kind, v int64) uint64 {
	return mix64(hashSeed(kind, 0), uint64(v))
}

// --- arena primitives ---

// findLocked returns the existing composite node matching (kind, op,
// kids), or NoID. Caller holds at least the read lock.
func (a *arena) findLocked(h uint64, kind Kind, op int8, kids []ID) ID {
	for _, id := range a.byHash[h] {
		n := &a.nodes[id-1]
		if n.kind != kind || n.op != op || len(n.kids) != len(kids) {
			continue
		}
		same := true
		for i := range kids {
			if n.kids[i] != kids[i] {
				same = false
				break
			}
		}
		if same {
			return id
		}
	}
	return NoID
}

// compositeHash folds the children's hashes into the node seed. Caller
// holds at least the read lock.
func (a *arena) compositeHash(kind Kind, op int8, kids []ID) uint64 {
	h := hashSeed(kind, op)
	for _, k := range kids {
		h = mix64(h, a.nodes[k-1].hash)
	}
	return h
}

// internLeaf interns an Int, Bool, or Var node.
func internLeaf(kind Kind, ival int64, name string, rep Expr) ID {
	ar.mu.RLock()
	var id ID
	switch kind {
	case KindInt:
		id = ar.ints[ival]
	case KindVar:
		id = ar.vars[name]
	case KindBool:
		if len(ar.nodes) >= 2 { // after init
			id = BoolID(ival != 0)
		}
	}
	ar.mu.RUnlock()
	if id != NoID {
		return id
	}
	var h uint64
	if kind == KindVar {
		h = hashString(kind, name)
	} else {
		h = hashInt(kind, ival)
	}
	ar.mu.Lock()
	defer ar.mu.Unlock()
	switch kind {
	case KindInt:
		if id := ar.ints[ival]; id != NoID {
			return id
		}
	case KindVar:
		if id := ar.vars[name]; id != NoID {
			return id
		}
	}
	ar.nodes = append(ar.nodes, inode{kind: kind, ival: ival, name: name, hash: h, rep: rep})
	id = ID(len(ar.nodes))
	ar.byHash[h] = append(ar.byHash[h], id)
	ar.bytes += nodeBytes(len(name), 0)
	switch kind {
	case KindInt:
		ar.ints[ival] = id
	case KindVar:
		ar.vars[name] = id
	}
	return id
}

// internComposite interns a node with children, building the canonical
// representative from the children's representatives. kids must already
// be in canonical order; the slice is copied on insert.
func internComposite(kind Kind, op int8, kids []ID) ID {
	ar.mu.RLock()
	h := ar.compositeHash(kind, op, kids)
	id := ar.findLocked(h, kind, op, kids)
	ar.mu.RUnlock()
	if id != NoID {
		return id
	}
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if id := ar.findLocked(h, kind, op, kids); id != NoID {
		return id
	}
	var rep Expr
	switch kind {
	case KindBin:
		rep = Bin{Op: BinOp(op), X: ar.nodes[kids[0]-1].rep, Y: ar.nodes[kids[1]-1].rep}
	case KindCmp:
		rep = Cmp{Op: CmpOp(op), X: ar.nodes[kids[0]-1].rep, Y: ar.nodes[kids[1]-1].rep}
	case KindNot:
		rep = Not{X: ar.nodes[kids[0]-1].rep}
	case KindAnd, KindOr:
		xs := make([]Expr, len(kids))
		for i, k := range kids {
			xs[i] = ar.nodes[k-1].rep
		}
		if kind == KindAnd {
			rep = And{Xs: xs}
		} else {
			rep = Or{Xs: xs}
		}
	default:
		panic(fmt.Sprintf("expr: internComposite of %v", kind))
	}
	own := make([]ID, len(kids))
	copy(own, kids)
	ar.nodes = append(ar.nodes, inode{kind: kind, op: op, kids: own, hash: h, rep: rep})
	id = ID(len(ar.nodes))
	ar.byHash[h] = append(ar.byHash[h], id)
	ar.bytes += nodeBytes(0, len(kids))
	return id
}

// --- public accessors ---

// FromID returns the canonical representative expression of id. The
// returned tree shares substructure with every other representative;
// treat it as immutable.
func FromID(id ID) Expr {
	ar.mu.RLock()
	rep := ar.nodes[id-1].rep
	ar.mu.RUnlock()
	return rep
}

// IDHash returns the precomputed 64-bit structural hash of id. Hashes
// are a function of content only and identical across runs.
func IDHash(id ID) uint64 {
	ar.mu.RLock()
	h := ar.nodes[id-1].hash
	ar.mu.RUnlock()
	return h
}

// IDBoolValue reports whether id is a boolean constant and, if so, its
// truth value. It never locks: the two constant IDs are fixed at init.
func IDBoolValue(id ID) (value, ok bool) {
	switch id {
	case trueID:
		return true, true
	case falseID:
		return false, true
	}
	return false, false
}

// IDKey returns the canonical Key() string of id's representative. This
// exists for diagnostics and tests; hot paths compare IDs instead.
func IDKey(id ID) string { return FromID(id).Key() }

// View is a read-only structural decomposition of an interned node.
type View struct {
	Kind  Kind
	BinOp BinOp  // KindBin
	CmpOp CmpOp  // KindCmp
	Int   int64  // KindInt
	Bool  bool   // KindBool
	Name  string // KindVar
	Kids  []ID   // children; shared with the arena, do not mutate
}

// IDView decomposes id for structure-directed consumers (the SMT encoder
// walks formulas this way without rebuilding trees or keys).
func IDView(id ID) View {
	ar.mu.RLock()
	n := &ar.nodes[id-1]
	v := View{Kind: n.kind, Kids: n.kids}
	switch n.kind {
	case KindInt:
		v.Int = n.ival
	case KindBool:
		v.Bool = n.ival != 0
	case KindVar:
		v.Name = n.name
	case KindBin:
		v.BinOp = BinOp(n.op)
	case KindCmp:
		v.CmpOp = CmpOp(n.op)
	}
	ar.mu.RUnlock()
	return v
}

// ArenaStats describes the process-wide interning arena for resource
// watermarking: distinct canonical nodes and an estimated memory
// footprint. The arena is append-only, so both only grow, and IDs are
// dense: every ID in 1..Nodes is valid and none is ever reused.
type ArenaStats struct {
	// Nodes is the number of interned nodes, which is also the largest
	// ID handed out.
	Nodes int
	// Bytes estimates the arena's memory footprint: per-node struct and
	// hash-index overhead plus variable-length payloads (names, child
	// slices, canonical representatives). An estimate, not an exact
	// runtime measurement — its value is trend visibility.
	Bytes int64
}

// Stats snapshots the arena's size accounting in O(1).
func Stats() ArenaStats {
	ar.mu.RLock()
	s := ArenaStats{Nodes: len(ar.nodes), Bytes: ar.bytes}
	ar.mu.RUnlock()
	return s
}

// nodeBytes estimates one interned node's footprint: the inode struct
// (~88 bytes with padding), its byHash index slot, an amortized share of
// the canonical representative tree, the name payload, and 4 bytes per
// child ID. Constants were calibrated against unsafe.Sizeof; exactness
// is not the point — monotone growth visibility is.
func nodeBytes(nameLen, kids int) int64 {
	const perNode = 88 + 16 + 48 // inode + index slot + representative share
	return int64(perNode + nameLen + 4*kids)
}

// --- smart constructors ---

// InternNum interns an integer constant.
func InternNum(v int64) ID { return internLeaf(KindInt, v, "", Int{Value: v}) }

// InternV interns a variable reference.
func InternV(name string) ID { return internLeaf(KindVar, 0, name, Var{Name: name}) }

// InternBin interns x op y with the same constant folding and identity
// rules as Simplify, plus hash-ordering of commutative operands.
func InternBin(op BinOp, x, y ID) ID {
	xv, yv := IDView(x), IDView(y)
	if xv.Kind == KindInt && yv.Kind == KindInt {
		switch op {
		case OpAdd:
			return InternNum(xv.Int + yv.Int)
		case OpSub:
			return InternNum(xv.Int - yv.Int)
		case OpMul:
			return InternNum(xv.Int * yv.Int)
		}
	}
	switch op {
	case OpAdd:
		if xv.Kind == KindInt && xv.Int == 0 {
			return y
		}
		if yv.Kind == KindInt && yv.Int == 0 {
			return x
		}
	case OpSub:
		if yv.Kind == KindInt && yv.Int == 0 {
			return x
		}
	case OpMul:
		if xv.Kind == KindInt && xv.Int == 1 {
			return y
		}
		if yv.Kind == KindInt && yv.Int == 1 {
			return x
		}
		if (xv.Kind == KindInt && xv.Int == 0) || (yv.Kind == KindInt && yv.Int == 0) {
			return InternNum(0)
		}
	}
	if op != OpSub && idLess(y, x) {
		x, y = y, x
	}
	return internComposite(KindBin, int8(op), []ID{x, y})
}

// InternCmp interns the comparison x op y: constant comparisons fold,
// identical operands fold, and Gt/Ge normalise to Lt/Le by swapping, so
// different spellings of one atom share an ID.
func InternCmp(op CmpOp, x, y ID) ID {
	xv, yv := IDView(x), IDView(y)
	if xv.Kind == KindInt && yv.Kind == KindInt {
		return BoolID(evalCmp(op, xv.Int, yv.Int))
	}
	if x == y {
		switch op {
		case OpEq, OpLe, OpGe:
			return trueID
		case OpNe, OpLt, OpGt:
			return falseID
		}
	}
	switch op {
	case OpGt:
		op, x, y = OpLt, y, x
	case OpGe:
		op, x, y = OpLe, y, x
	}
	return internComposite(KindCmp, int8(op), []ID{x, y})
}

// InternNot interns the logical negation of x, pushing the negation into
// boolean constants, comparisons, and double negations (the same rules as
// Negate). Negations are memoised both ways on the nodes, so repeated
// complement lookups are a read-locked field load.
func InternNot(x ID) ID {
	ar.mu.RLock()
	n := ar.nodes[x-1] // struct copy; kids slice is immutable
	ar.mu.RUnlock()
	if n.neg != NoID {
		return n.neg
	}
	var out ID
	switch n.kind {
	case KindBool:
		out = BoolID(n.ival == 0)
	case KindCmp:
		out = InternCmp(CmpOp(n.op).Negate(), n.kids[0], n.kids[1])
	case KindNot:
		out = n.kids[0]
	default:
		out = internComposite(KindNot, 0, []ID{x})
	}
	ar.mu.Lock()
	ar.nodes[x-1].neg = out
	ar.nodes[out-1].neg = x
	ar.mu.Unlock()
	return out
}

// idLess is the canonical child order: by structural hash, with the
// (vanishingly rare) hash ties broken by canonical key so the order is a
// pure function of content — never of intern order.
func idLess(a, b ID) bool {
	if a == b {
		return false
	}
	ha, hb := IDHash(a), IDHash(b)
	if ha != hb {
		return ha < hb
	}
	return IDKey(a) < IDKey(b)
}

// naryKid is one child of an And/Or being canonicalised, with what
// internNary reads of it from the arena: its hash, and its memoised
// negation (NoID until first computed) with that negation's hash.
type naryKid struct {
	hash    uint64
	id      ID
	neg     ID
	negHash uint64
}

// naryKidLocked reads child id. Caller holds at least the read lock.
func (a *arena) naryKidLocked(id ID) naryKid {
	n := &a.nodes[id-1]
	k := naryKid{hash: n.hash, id: id, neg: n.neg}
	if k.neg != NoID {
		k.negHash = a.nodes[k.neg-1].hash
	}
	return k
}

// internNary builds a canonical And/Or: flatten same-kind children, drop
// identity constants, collapse on absorbing constants, deduplicate,
// detect complementary children (x and ¬x), and sort. For KindAnd a
// complementary pair collapses to false; for KindOr to true.
//
// Every child's hash and memoised negation is read under one read lock;
// sorting, deduplication and the complement check then run on that local
// copy. Only hash ties between distinct children (vanishingly rare) and
// negations not yet memoised go back to the arena, after the lock is
// released: FromID and InternNot lock it themselves, and a read lock
// taken twice deadlocks once a writer is waiting.
func internNary(kind Kind, xs []ID) ID {
	identity, absorb := trueID, falseID
	if kind == KindOr {
		identity, absorb = falseID, trueID
	}
	var buf [16]naryKid
	kids := buf[:0]
	ar.mu.RLock()
	for _, x := range xs {
		if x == absorb {
			ar.mu.RUnlock()
			return absorb
		}
		if x == identity {
			continue
		}
		// A same-kind child's own children are canonical: never a
		// constant, never of this kind.
		if n := &ar.nodes[x-1]; n.kind == kind {
			for _, k := range n.kids {
				kids = append(kids, ar.naryKidLocked(k))
			}
			continue
		}
		kids = append(kids, ar.naryKidLocked(x))
	}
	ar.mu.RUnlock()

	slices.SortFunc(kids, func(a, b naryKid) int { return cmp.Compare(a.hash, b.hash) })
	// Within a run of equal hashes, order by canonical key (idLess).
	for i := 0; i < len(kids); {
		j := i + 1
		mixed := false
		for ; j < len(kids) && kids[j].hash == kids[i].hash; j++ {
			mixed = mixed || kids[j].id != kids[i].id
		}
		if mixed {
			slices.SortFunc(kids[i:j], func(a, b naryKid) int {
				if a.id == b.id {
					return 0
				}
				return strings.Compare(IDKey(a.id), IDKey(b.id))
			})
		}
		i = j
	}
	// Dedup adjacent (sorted ⇒ equal IDs adjacent).
	out := kids[:0]
	for _, k := range kids {
		if len(out) > 0 && out[len(out)-1].id == k.id {
			continue
		}
		out = append(out, k)
	}
	kids = out
	// Complementary pair ⇒ the absorbing constant.
	for _, k := range kids {
		if k.neg == NoID {
			k.neg = InternNot(k.id)
			k.negHash = IDHash(k.neg)
		}
		lo, _ := slices.BinarySearchFunc(kids, k.negHash, func(c naryKid, h uint64) int { return cmp.Compare(c.hash, h) })
		for ; lo < len(kids) && kids[lo].hash == k.negHash; lo++ {
			if kids[lo].id == k.neg {
				return absorb
			}
		}
	}
	switch len(kids) {
	case 0:
		return identity
	case 1:
		return kids[0].id
	}
	var idBuf [16]ID
	ids := idBuf[:0]
	for _, k := range kids {
		ids = append(ids, k.id)
	}
	return internComposite(kind, 0, ids)
}

// IDConj interns the canonical conjunction of xs (see internNary).
func IDConj(xs ...ID) ID { return internNary(KindAnd, xs) }

// IDDisj interns the canonical disjunction of xs.
func IDDisj(xs ...ID) ID { return internNary(KindOr, xs) }

// Intern canonicalises and interns expression e, returning its ID.
// Structurally equal inputs — and many logically equal ones, thanks to
// canonicalisation — share one ID, and Intern(FromID(id)) == id.
func Intern(e Expr) ID {
	switch g := e.(type) {
	case Int:
		return InternNum(g.Value)
	case Var:
		return InternV(g.Name)
	case Bool:
		return BoolID(g.Value)
	case Bin:
		return InternBin(g.Op, Intern(g.X), Intern(g.Y))
	case Cmp:
		return InternCmp(g.Op, Intern(g.X), Intern(g.Y))
	case Not:
		return InternNot(Intern(g.X))
	case And:
		kids := make([]ID, len(g.Xs))
		for i, x := range g.Xs {
			kids[i] = Intern(x)
		}
		return internNary(KindAnd, kids)
	case Or:
		kids := make([]ID, len(g.Xs))
		for i, x := range g.Xs {
			kids[i] = Intern(x)
		}
		return internNary(KindOr, kids)
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}
