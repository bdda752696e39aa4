package circ

import (
	"context"
	"fmt"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/pred"
	"circ/internal/reach"
	"circ/internal/telemetry"
)

// goodLocationCheck implements the omega-CIRC generalisation test of
// Section 5: after the inner loop converges with exactly k context
// threads, verify that the inferred context also describes arbitrarily
// many threads. A location n of the final ARG G is good for a context
// transition e = q' -{Y}-> q” of the quotient when (1) e is enabled at
// mu(n) in some reachable environment configuration and (2) executing e
// from n's region stays within n's region:
//
//	(exists Y. R(n)) ∧ label(q'')  ⟹  R(n)
//
// If every location is good for every enabled transition, the context
// soundly over-approximates an unbounded number of threads.
//
// Enabledness is computed by a data-aware context-only reachability: a
// configuration is a counter map plus an abstract cube over the global
// predicates, and context moves are gated by the target-location labels.
// The data makes label-encoded mutual exclusion visible (e.g. two threads
// can never both occupy the critical-section locations), without which the
// check would fail spuriously and k would diverge.
//
// argA and locMap are g's projection (ARG.ToACFA). abs is the round's
// Abstractor: g ranges over its predicate set, and the context reach
// shares its post memo with the round's ReachAndBuild runs.
func goodLocationCheck(ctx context.Context, c *cfa.CFA, g *reach.ARG, argA *acfa.ACFA, locMap map[int]acfa.Loc, k int, abs *pred.Abstractor, reg *telemetry.Registry) (bool, error) {
	chk := abs.Chk
	// Re-collapse the final ARG so locations and classes line up.
	quot, muq := collapse(ctx, argA, locMap, reg)
	if quot.IsEmpty() {
		return true, nil // a do-nothing context trivially generalises
	}
	configs, err := contextReach(quot, k, c, abs)
	if err != nil {
		return false, err
	}
	for _, n := range g.Roots() {
		cls, ok := muq[n]
		if !ok {
			continue
		}
		// While the main-representing thread occupies an atomic location,
		// no context transition can fire, so its region need not be closed
		// under context effects.
		if quot.IsAtomic(cls) {
			continue
		}
		rn := g.Region(n)
		rnFormula := rn.Formula()
		for _, e := range quot.Edges {
			if !enabledAt(configs, e, cls) {
				continue
			}
			drop := e.HavocSet()
			lhs := expr.Conj(rn.ProjectVars(drop).Formula(), quot.Label(e.Dst).Formula())
			if !chk.Implies(lhs, rnFormula) {
				return false, nil
			}
		}
	}
	return true, nil
}

// ctxConfig is a context-only configuration: counters plus an abstract
// view of the global state.
type ctxConfig struct {
	ctx  reach.Ctx
	cube *pred.Cube
}

// contextReach enumerates the configurations reachable by the context
// alone, seeding the entry location with omega under the k-counter
// abstraction and the all-zero global state.
func contextReach(a *acfa.ACFA, k int, c *cfa.CFA, abs *pred.Abstractor) ([]ctxConfig, error) {
	init := ctxConfig{
		ctx:  make(reach.Ctx, a.NumLocs()),
		cube: abs.InitialCube(c.Globals),
	}
	init.ctx[a.Entry] = reach.Omega
	// A configuration is keyed by its counters and its cube's formula:
	// cubes with one formula have the same posts (the post memo is keyed
	// by formula too), so they reach the same configurations.
	type configKey struct {
		ctx  string
		cube expr.ID
	}
	key := func(cf ctxConfig) configKey { return configKey{cf.ctx.Key(), cf.cube.FormulaID()} }
	seen := map[configKey]bool{key(init): true}
	queue := []ctxConfig{init}
	havocs := make(map[*acfa.Edge]pred.Havoc, len(a.Edges))
	for _, e := range a.Edges {
		havocs[e] = abs.Havoc(e.Havoc)
	}
	var out []ctxConfig
	const budget = 100000
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		if len(out) > budget {
			return nil, fmt.Errorf("circ: context configuration budget exceeded")
		}
		// Atomic scheduling: if an atomic location is occupied, only its
		// thread moves.
		sources := make([]acfa.Loc, 0, a.NumLocs())
		atomicOccupied := -1
		for n := 0; n < a.NumLocs(); n++ {
			if cur.ctx.Occupied(acfa.Loc(n)) {
				if a.IsAtomic(acfa.Loc(n)) {
					atomicOccupied = n
					break
				}
				sources = append(sources, acfa.Loc(n))
			}
		}
		if atomicOccupied >= 0 {
			sources = []acfa.Loc{acfa.Loc(atomicOccupied)}
		}
		for _, src := range sources {
			for _, e := range a.OutEdges(src) {
				ctx2 := cur.ctx.Move(e.Src, e.Dst, k)
				for _, tc := range a.Label(e.Dst).Cubes() {
					next, _ := abs.EnvPost(cur.cube, havocs[e], tc)
					if next == nil {
						continue
					}
					cf := ctxConfig{ctx: ctx2, cube: next}
					if kk := key(cf); !seen[kk] {
						seen[kk] = true
						queue = append(queue, cf)
					}
				}
			}
		}
	}
	return out, nil
}

// enabledAt reports whether context transition e can fire while the
// distinguished (main-representing) thread sits at class cls: some
// reachable configuration has a thread at e.Src in addition to the one at
// cls.
func enabledAt(configs []ctxConfig, e *acfa.Edge, cls acfa.Loc) bool {
	for _, cf := range configs {
		if !cf.ctx.Occupied(e.Src) {
			continue
		}
		if cls != e.Src {
			if cf.ctx.Occupied(cls) {
				return true
			}
		} else if cf.ctx.AtLeastTwo(e.Src) {
			return true
		}
	}
	return false
}
