// Package bisim implements the paper's Collapse procedure: converting an
// abstract reachability graph into a minimal context model by (1)
// projecting out local variables from its labels, and (2) computing the
// weak bisimulation quotient with the projected labels and atomicity as
// observables and the havoc sets as actions (tau = edges writing no
// global).
package bisim

import (
	"context"
	"encoding/binary"
	"slices"
	"time"

	"circ/internal/acfa"
	"circ/internal/journal"
	"circ/internal/pred"
	"circ/internal/telemetry"
)

// Collapse minimises an ARG into an ACFA context model. argA and locMap
// are the ARG's projection, as ARG.ToACFA returns them: its ACFA and the
// map from canonical ARG location ids to argA's locations. Collapse
// returns the quotient automaton and mu, the map from canonical ARG
// location ids to quotient locations (needed by the refiner to concretise
// abstract paths). reg, which may be nil, receives the quotient's size
// and duration metrics; when ctx carries a journal stream, the quotient's
// shrinkage is recorded as an acfa_collapsed event.
func Collapse(ctx context.Context, argA *acfa.ACFA, locMap map[int]acfa.Loc, reg *telemetry.Registry) (*acfa.ACFA, map[int]acfa.Loc) {
	start := time.Now()
	quot, classOf := Quotient(argA)
	mu := make(map[int]acfa.Loc, len(locMap))
	for root, l := range locMap {
		mu[root] = classOf[l]
	}
	reg.Counter("bisim.collapses").Inc()
	reg.Counter("bisim.locs.in").Add(int64(argA.NumLocs()))
	reg.Counter("bisim.locs.out").Add(int64(quot.NumLocs()))
	reg.Histogram("bisim.collapse").Since(start)
	journal.FromContext(ctx).Emit(journal.Event{
		Type:       journal.EvACFACollapsed,
		LocsBefore: argA.NumLocs(),
		LocsAfter:  quot.NumLocs(),
	})
	return quot, mu
}

// Quotient computes the weak bisimulation quotient of a. It returns the
// quotient automaton and the class of each original location.
//
// Labels are compared syntactically: two locations start in one block
// when their atomicity agrees and their labels have equal equivalence
// keys (pred.Region.Key). On the engine's closed cubes that is semantic
// equivalence up to reasoning across a label's cubes; a stricter test only
// yields a finer quotient, which still weakly simulates a.
func Quotient(a *acfa.ACFA) (*acfa.ACFA, map[acfa.Loc]acfa.Loc) {
	n := a.NumLocs()
	if n == 0 {
		empty := &acfa.ACFA{}
		empty.Finish()
		return empty, map[acfa.Loc]acfa.Loc{}
	}

	// Initial partition: syntactic label class + atomicity, blocks
	// numbered by first occurrence.
	type labelClass struct {
		atomic bool
		key    string
	}
	block := make([]int, n)
	classes := make(map[labelClass]int)
	for l := 0; l < n; l++ {
		lc := labelClass{a.IsAtomic(acfa.Loc(l)), a.Label(acfa.Loc(l)).Key()}
		b, ok := classes[lc]
		if !ok {
			b = len(classes)
			classes[lc] = b
		}
		block[l] = b
	}

	weak := acfa.WeakMoves(a)

	// Partition refinement on the saturated weak transition relation. A
	// location's key is its old block followed by its signature, so
	// refinement only splits blocks.
	var sig []uint64
	var key []byte
	for {
		sigs := make(map[string]int)
		newBlock := make([]int, n)
		changed := false
		for l := 0; l < n; l++ {
			sig = signature(sig[:0], weak[l], block, l)
			key = binary.AppendUvarint(key[:0], uint64(block[l]))
			for _, m := range sig {
				key = binary.AppendUvarint(key, m)
			}
			id, ok := sigs[string(key)]
			if !ok {
				id = len(sigs)
				sigs[string(key)] = id
			}
			newBlock[l] = id
		}
		for l := 0; l < n; l++ {
			if newBlock[l] != block[l] {
				changed = true
			}
		}
		block = newBlock
		if !changed {
			break
		}
	}

	// Renumber blocks densely in order of first occurrence.
	dense := make(map[int]int)
	for l := 0; l < n; l++ {
		if _, ok := dense[block[l]]; !ok {
			dense[block[l]] = len(dense)
		}
	}

	quot := &acfa.ACFA{}
	classOf := make(map[acfa.Loc]acfa.Loc, n)
	members := make([][]acfa.Loc, len(dense))
	for l := 0; l < n; l++ {
		c := dense[block[l]]
		classOf[acfa.Loc(l)] = acfa.Loc(c)
		members[c] = append(members[c], acfa.Loc(l))
	}
	for c := 0; c < len(dense); c++ {
		var label *pred.Region
		atomic := false
		for i, m := range members[c] {
			if i == 0 {
				label = a.Label(m).Clone()
				atomic = a.IsAtomic(m)
			} else {
				label.AddRegion(a.Label(m))
			}
		}
		quot.AddLoc(label, atomic)
	}
	// Project edges: keep non-tau edges (as self-loops when internal, the
	// paper's rule) and tau edges that cross classes (observable label
	// changes with no global writes).
	type projected struct {
		src, dst acfa.Loc
		havoc    int
	}
	seen := make(map[projected]bool)
	for _, e := range a.Edges {
		cs, cd := classOf[e.Src], classOf[e.Dst]
		if e.HavocID == 0 && cs == cd {
			continue // internal tau: dissolved by the quotient
		}
		key := projected{cs, cd, e.HavocID}
		if seen[key] {
			continue
		}
		seen[key] = true
		quot.AddEdge(cs, cd, e.Havoc)
	}
	quot.Entry = classOf[a.Entry]
	quot.Finish()
	return quot, classOf
}

// signature appends to dst the canonical description of a location's weak
// moves up to the current partition: each move's (havoc id, block) packed
// into one word, sorted and deduplicated. Pure-tau moves within the own
// block are omitted (always present).
func signature(dst []uint64, moves []acfa.WeakMove, block []int, self int) []uint64 {
	for _, m := range moves {
		b := block[m.Dst]
		if m.Havoc == 0 && b == block[self] {
			continue
		}
		dst = append(dst, uint64(m.Havoc)<<32|uint64(b))
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}
