package circ

import (
	"context"
	"strconv"

	"circ/internal/cfa"
	icirc "circ/internal/circ"
	"circ/internal/dataflow"
	"circ/internal/expr"
	"circ/internal/journal"
	"circ/internal/store"
	"circ/internal/telemetry"
)

// Certificate-store surface (implemented in internal/store): the
// incremental re-checking layer behind the checker-as-a-service daemon.
//
// A CertStore maps a canonical serialization of (sliced thread CFA, race
// variable, engine configuration) to the engine's Report for that input.
// Attach one with WithCertStore and re-submitting an unchanged program
// replays the stored report per target instead of running context
// inference. Replay is sound because the key holds every input the
// engine reads, the engine is deterministic on identical input
// (TestReportDeterministic), and the store lives in the process and is
// never read back from outside it. A warm report equals the cold one
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
// when a certificate store is attached — a store probe whose hit replays
// the stored report, with a full CIRC run as the miss path and store
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
	// The inference engine reads the journal stream from the context.
	if s.Enabled() {
		ctx = journal.NewContext(ctx, s)
	}
	if c.store == nil {
		return icirc.Check(ctx, g, variable, o, c.solver)
	}
	canon := storeCanon(g, variable, o)
	if stored, ok := c.store.Get(canon); ok {
		o.Metrics.Counter("store.hit").Inc()
		return reuse(stored, s, o.Metrics), nil
	}
	o.Metrics.Counter("store.miss").Inc()
	rep, err := icirc.Check(ctx, g, variable, o, c.solver)
	if err == nil {
		kept := *rep
		kept.Metrics = Metrics{}
		c.store.Put(canon, &kept)
		o.Metrics.Counter("store.write").Inc()
	}
	return rep, err
}

// reuse serves a store hit without running context inference: it emits
// the case's certificate_reused and verdict events and returns a copy of
// the stored report whose Metrics is the reuse's own snapshot.
func reuse(stored *Report, s *journal.Stream, reg *telemetry.Registry) *Report {
	unit := telemetry.ChildOf(reg)
	// unit is a child of reg: its counter passes the increment up.
	unit.Counter("store.reused").Inc()
	verdict := stored.Verdict.String()
	s.Emit(journal.Event{Type: journal.EvCertificateReused, Verdict: verdict})
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
	return &rep
}
