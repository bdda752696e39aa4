package circ

import (
	"context"
	"strconv"

	"circ/internal/cfa"
	icirc "circ/internal/circ"
	"circ/internal/dataflow"
	"circ/internal/expr"
	"circ/internal/journal"
	"circ/internal/smt"
	"circ/internal/store"
	"circ/internal/telemetry"
)

// Certificate-store surface (implemented in internal/store): the
// incremental re-checking layer behind the checker-as-a-service daemon.
//
// A CertStore maps a canonical serialization of (sliced thread CFA, race
// variable, engine configuration) to the engine's Report for that input.
// Attach one with WithCertStore and re-submitting an unchanged program
// costs a certificate re-verification per target instead of a
// context-inference run: Safe reports are re-proved with Algorithm Check
// (VerifyCertificate), Unsafe reports re-establish their race by
// re-checking the stored trace formula's satisfiability, and Unknown
// reports replay (sound because the engine is deterministic on identical
// input). A store hit whose evidence fails re-validation falls back to a
// full run and overwrites the entry. A warm report equals the cold one
// apart from its Metrics, which describe the reuse.
//
// The serialization itself is the map key, so a hit means the bytes are
// equal; no hash stands in for equality.
type (
	// CertStore is a concurrency-safe certificate store, shared across
	// any number of Checkers and requests.
	CertStore = store.Store
	// CertStoreStats snapshots what only the store knows: entry count,
	// cap, evictions, footprint and watermarks. Store traffic is counted
	// by the Checker's store.* counters; see Checker.Snapshot.
	CertStoreStats = store.Stats
)

// NewCertStore returns an empty, unbounded certificate store.
func NewCertStore() *CertStore { return store.New() }

// NewCertStoreLRU returns an empty certificate store that holds at most
// maxEntries entries, evicting the least recently used certificate when
// the bound is exceeded. maxEntries <= 0 means unbounded.
func NewCertStoreLRU(maxEntries int) *CertStore { return store.NewLRU(maxEntries) }

// WithCertStore attaches a certificate store: every unit analysed by the
// Checker first probes st, and verdicts computed the hard way are stored
// for the next identical submission. A nil store (the default) disables
// incremental re-checking.
func WithCertStore(st *CertStore) Option { return func(c *Checker) { c.store = st } }

// CertStore returns the attached certificate store, or nil.
func (c *Checker) CertStore() *CertStore { return c.store }

// storeCanon serializes everything that determines a unit's verdict: a
// format version, the race variable, every verdict-affecting engine
// option, and the canonical form of the (sliced) thread CFA the engine
// will analyse. Parallelism and observability options are deliberately
// excluded — verdicts are identical at any parallelism. Option defaults
// are not normalized (a Checker built with K=0 and one with the explicit
// default K=1 key differently); that costs at most one redundant entry
// per configuration spelling, never a wrong reuse.
func storeCanon(g *cfa.CFA, variable string, o icirc.Options) []byte {
	b := make([]byte, 0, 1024)
	b = append(b, "circ-store-v1|var="...)
	b = append(b, variable...)
	b = append(b, "|k="...)
	b = strconv.AppendInt(b, int64(o.K), 10)
	b = append(b, "|omega="...)
	b = strconv.AppendBool(b, o.Omega)
	b = append(b, "|rounds="...)
	b = strconv.AppendInt(b, int64(o.MaxRounds), 10)
	b = append(b, "|inner="...)
	b = strconv.AppendInt(b, int64(o.MaxInner), 10)
	b = append(b, "|states="...)
	b = strconv.AppendInt(b, int64(o.MaxStates), 10)
	for _, p := range o.InitialPreds {
		b = append(b, "|seed="...)
		b = append(b, p.Key()...)
	}
	b = append(b, "|cfa="...)
	return g.AppendCanonical(b)
}

// checkUnit runs one (thread CFA, variable) unit end to end: static
// triage against the thread's facts, cone-of-influence slicing, then —
// when a certificate store is attached — the incremental path (probe,
// re-validate, reuse) with a full CIRC run as the fallback and store
// writer. It is the single analysis path shared by Checker.Check and
// Checker.CheckAll.
func (c *Checker) checkUnit(ctx context.Context, g *cfa.CFA, facts *dataflow.ThreadFacts, variable string, s *journal.Stream, o icirc.Options) (*Report, error) {
	g, seeds, rep := c.prepareUnit(g, facts, variable, s, o.Metrics)
	if rep != nil {
		return rep, nil
	}
	// Seed predicates join the engine options before the store key is
	// computed: a seeded and an unseeded run of the same unit follow
	// different inference trajectories, so they must never share a
	// certificate entry.
	o.InitialPreds = append(append([]expr.Expr(nil), o.InitialPreds...), seeds...)
	// The inference engine reads the journal stream from the context; the
	// reuse path keeps it out of its re-validation runs (their internal
	// events are not part of the case's canonical history) and emits its
	// own events through s directly.
	jctx := ctx
	if s.Enabled() {
		jctx = journal.NewContext(ctx, s)
	}
	if c.store == nil {
		return icirc.Check(jctx, g, variable, o, c.solver)
	}
	canon := storeCanon(g, variable, o)
	if stored, ok := c.store.Get(canon); ok {
		o.Metrics.Counter("store.hit").Inc()
		if rep, err := c.reuse(ctx, g, variable, stored, s, o.Metrics); rep != nil || err != nil {
			return rep, err
		}
		// Stored evidence no longer verified: fall through to a full run
		// (which overwrites the entry).
	} else {
		o.Metrics.Counter("store.miss").Inc()
	}
	rep, err := icirc.Check(jctx, g, variable, o, c.solver)
	if err == nil {
		kept := *rep
		kept.Metrics = Metrics{}
		c.store.Put(canon, &kept)
		o.Metrics.Counter("store.write").Inc()
	}
	return rep, err
}

// reuse re-establishes a stored verdict without running context
// inference. It returns (nil, nil) when the stored evidence fails its
// re-validation — the caller then runs the engine — and a non-nil error
// only for infrastructure failures (e.g. context cancellation during
// certificate re-verification). The returned report is a copy of the
// stored one whose Metrics is the reuse's own snapshot.
//
// Soundness: the store key matched byte-for-byte, so g is structurally
// identical to the CFA the stored report was computed for. Safe evidence
// is nevertheless re-proved with Algorithm Check and Unsafe evidence
// re-checked for satisfiability — the store is treated as untrusted
// input, exactly like a certificate handed to VerifyCertificate.
func (c *Checker) reuse(ctx context.Context, g *cfa.CFA, variable string, stored *Report, s *journal.Stream, reg *telemetry.Registry) (*Report, error) {
	unit := telemetry.ChildOf(reg)
	var outcome string
	switch stored.Verdict {
	case Safe:
		err := icirc.VerifyCertificate(ctx, g, variable, stored.FinalACFA, stored.Preds, stored.K, c.solver)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			reg.Counter("store.revalidation_failed").Inc()
			return nil, nil
		}
		outcome = "certificate"
	case Unsafe:
		ids := make([]expr.ID, len(stored.TF))
		for i, clause := range stored.TF {
			ids[i] = expr.Intern(clause)
		}
		if c.solver.SatID(expr.IDConj(ids...)) != smt.Sat {
			reg.Counter("store.revalidation_failed").Inc()
			return nil, nil
		}
		outcome = "witness"
	default:
		// Unknown: no independent evidence to re-check beyond the
		// byte-identical input; the engine is deterministic, so the
		// stored outcome is what a re-run would compute.
		outcome = "replay"
	}
	// unit is a child of reg: its counter passes the increment up.
	unit.Counter("store.reused").Inc()
	verdict := stored.Verdict.String()
	s.Emit(journal.Event{Type: journal.EvCertificateReused, Verdict: verdict, Outcome: outcome})
	// The verdict event carries exactly the fields the original inference
	// run emitted, keeping warm and cold journals identical in verdict
	// content.
	s.Emit(journal.Event{
		Type:     journal.EvVerdict,
		Verdict:  verdict,
		Reason:   stored.Reason,
		K:        stored.K,
		NumPreds: len(stored.Preds),
		Rounds:   stored.Rounds,
	})
	rep := *stored
	rep.Metrics = unit.Snapshot()
	return &rep, nil
}
