package reach

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"circ/internal/acfa"
	"circ/internal/telemetry"
)

// Worker pool for the BFS in reach.go.
//
// Expansion costs are uneven — a state whose posts hit the cache costs
// microseconds, one that misses costs SMT solves — so workers pull
// individual states rather than fixed batches, and nothing waits at a
// level barrier.
//
// Shape: the merger (the calling goroutine) walks a global `order` list
// of discovered states — strictly in discovery order, exactly the FIFO
// dequeue order of a sequential BFS. Each state occupies a slot with an
// atomic status (empty → claimed → done). Workers pull slots from
// per-worker deques — the owner pops newest-first (LIFO, cache-warm),
// thieves steal oldest-first (FIFO), Chase-Lev style — claim them by
// CAS, and expand: successors plus the isRace check, both pure
// (post-cache + concurrency-safe solver only). The merger resolves slot
// i by claiming it inline if nobody has, or waiting for its result;
// then it merges sequentially — budget accounting, race recording, ARG
// edges, dedup, discovery of new slots — and publishes fresh slots to
// the deques. Every state is therefore merged by one goroutine in a
// globally fixed order while expansion runs arbitrarily far ahead.
//
// Determinism argument. Verdict-relevant state (numStates, races, ARG,
// seen, journal widening events) is touched only by the merger, in
// discovery order, which is itself a deterministic function of the
// merged prefix — parallelism only changes *when* an expansion runs,
// never what it computes (expansions are pure functions of the state).
// The one side channel is the shared SMT cache: its *content* after the
// phase feeds the journal's new_cached delta. On a run that completes,
// every discovered slot is expanded at any parallelism (the merger
// reaches it), so the cache absorbs the same query set. On an early
// break — state budget exceeded or the race cap — workers may have
// speculatively expanded an arbitrary subset of outstanding slots, so
// the merger deterministically drains ALL outstanding slots before
// returning: the expanded set is again exactly the discovered set.
// Context cancellation skips the drain (an aborted run's journal is not
// compared). Slot results are published with an atomic status store
// after the fields are written; readers observe status==done before
// touching them (happens-before via sync/atomic).
//
// minStealOutstanding is the outstanding-work cutover: fresh slots are
// handed to workers only while at least this many states are already
// outstanding (discovered but unmerged). Below it the merger expands
// inline — a wakeup round-trip (a mutex push plus one broadcast onto the
// running pool) costs more than a mostly post-cache-hit expansion saves.
// Keying on outstanding work items bounds how far a worker could run
// ahead of the merger.
const minStealOutstanding = 4

const (
	slotEmpty int32 = iota
	slotClaimed
	slotDone
)

// slot is one discovered state, its place in the BFS tree, and its
// expansion result. The merger writes state, id, parent and op before the
// slot is published to a deque (a mutex release) or expanded inline;
// workers read only state. status guards recs/race: they are written
// before status is atomically set to slotDone and read only after
// observing slotDone.
type slot struct {
	state  State
	id     stateID
	parent *slot // the state that discovered this one; nil for the initial state
	op     Op    // the step from parent
	status int32
	recs   []succRecord
	race   bool
}

// stateID is an abstract state's identity within one exploration: the
// ARG's raw id of its thread state and the interned id of its context.
// Two states are the same exactly when their CFA locations, cube keys and
// counter maps agree.
type stateID struct{ ts, ctx int }

// deque is a mutex-guarded work deque of slots. The owning worker pops
// the tail (newest, LIFO); thieves and the merger push/steal at the
// head (oldest, FIFO). A slot may be claimed elsewhere by the time it
// is popped; the CAS on slot.status resolves ownership.
type deque struct {
	mu  sync.Mutex
	buf []*slot
}

func (d *deque) push(sl *slot) {
	d.mu.Lock()
	d.buf = append(d.buf, sl)
	d.mu.Unlock()
}

func (d *deque) popTail() *slot {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.buf) == 0 {
		return nil
	}
	sl := d.buf[len(d.buf)-1]
	d.buf = d.buf[:len(d.buf)-1]
	return sl
}

func (d *deque) popHead() *slot {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.buf) == 0 {
		return nil
	}
	sl := d.buf[0]
	d.buf = d.buf[1:]
	return sl
}

// stealPool runs parallelism-1 expansion workers (the merger is the
// remaining participant); at parallelism 1 it spawns nothing and every
// slot is expanded inline by the merger.
type stealPool struct {
	e    *explorer
	deqs []*deque
	next int // round-robin publish cursor

	mu       sync.Mutex
	workCond *sync.Cond // workers wait here for pubGen to move
	doneCond *sync.Cond // the merger waits here for a claimed slot
	pubGen   uint64
	stop     bool
	wg       sync.WaitGroup
}

func newStealPool(e *explorer, workers int) *stealPool {
	p := &stealPool{e: e}
	p.workCond = sync.NewCond(&p.mu)
	p.doneCond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		p.deqs = append(p.deqs, &deque{})
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// expand computes a claimed slot's result and publishes it. The status
// store is the release point for recs/race.
func (p *stealPool) expand(sl *slot) {
	sl.recs = p.e.successors(&sl.state)
	sl.race = p.e.isRace(&sl.state)
	atomic.StoreInt32(&sl.status, slotDone)
}

// workerLane names a worker's flight-deck timeline lane. The per-worker
// index is stable across the reach runs of one job, so segments from
// every phase of the job coalesce onto one lane per worker slot.
func workerLane(id int) string {
	return fmt.Sprintf("reach.worker.%02d", id)
}

func (p *stealPool) worker(id int) {
	defer p.wg.Done()
	// Flight-deck timeline: one busy segment per work burst (first claim
	// after a park until the deques run dry) and one idle segment per
	// park, bounded by the timeline's own cap. With no timeline attached
	// the loop pays a nil check per iteration, nothing more.
	tl := p.e.tl
	var lane string
	if tl != nil {
		lane = workerLane(id)
	}
	var busyStart time.Time // zero: not in a work burst
	var myGen uint64
	for {
		sl := p.deqs[id].popTail()
		if sl == nil {
			sl = p.steal(id, lane)
		}
		if sl == nil {
			idle := time.Now()
			if tl != nil && !busyStart.IsZero() {
				tl.Record(lane, telemetry.SegBusy, busyStart, idle.Sub(busyStart))
				busyStart = time.Time{}
			}
			p.mu.Lock()
			for !p.stop && p.pubGen == myGen {
				p.workCond.Wait()
			}
			myGen = p.pubGen
			stop := p.stop
			p.mu.Unlock()
			idleDur := time.Since(idle)
			p.e.hIdle.Observe(idleDur)
			tl.Record(lane, telemetry.SegIdle, idle, idleDur)
			if stop {
				return
			}
			continue
		}
		if atomic.CompareAndSwapInt32(&sl.status, slotEmpty, slotClaimed) {
			if tl != nil && busyStart.IsZero() {
				busyStart = time.Now()
			}
			p.expand(sl)
			p.mu.Lock()
			p.doneCond.Broadcast()
			p.mu.Unlock()
		}
	}
}

// steal takes the oldest slot from another worker's deque. A successful
// steal leaves an instant mark on the thief's timeline lane, so steal
// traffic is attributable per worker in the trace view.
func (p *stealPool) steal(id int, lane string) *slot {
	for i := 1; i < len(p.deqs); i++ {
		if sl := p.deqs[(id+i)%len(p.deqs)].popHead(); sl != nil {
			p.e.cSteals.Inc()
			if lane != "" {
				p.e.tl.Mark(lane, telemetry.SegSteal)
			}
			return sl
		}
	}
	return nil
}

// publish hands fresh slots to the workers, round-robin, once the
// outstanding count clears the cutover.
func (p *stealPool) publish(fresh []*slot, outstanding int) {
	p.e.gFrontier.Max(int64(outstanding))
	if len(fresh) == 0 || len(p.deqs) == 0 || outstanding < minStealOutstanding {
		return
	}
	for _, sl := range fresh {
		p.deqs[p.next%len(p.deqs)].push(sl)
		p.next++
	}
	p.mu.Lock()
	p.pubGen++
	p.workCond.Broadcast()
	p.mu.Unlock()
}

// resolve returns slot sl's expansion, claiming it inline when no
// worker has, or waiting for the worker that did.
func (p *stealPool) resolve(sl *slot) ([]succRecord, bool) {
	if atomic.CompareAndSwapInt32(&sl.status, slotEmpty, slotClaimed) {
		p.expand(sl)
		return sl.recs, sl.race
	}
	if atomic.LoadInt32(&sl.status) != slotDone {
		p.mu.Lock()
		for atomic.LoadInt32(&sl.status) != slotDone {
			p.doneCond.Wait()
		}
		p.mu.Unlock()
	}
	return sl.recs, sl.race
}

// drain expands every remaining slot (or waits for its in-flight
// expansion), discarding results. Called on early break so the set of
// expanded states — and with it the SMT cache content the journal
// reports — is the full discovered set at any parallelism.
func (p *stealPool) drain(rest []*slot) {
	for _, sl := range rest {
		if atomic.CompareAndSwapInt32(&sl.status, slotEmpty, slotClaimed) {
			p.expand(sl)
			continue
		}
		if atomic.LoadInt32(&sl.status) != slotDone {
			p.mu.Lock()
			for atomic.LoadInt32(&sl.status) != slotDone {
				p.doneCond.Wait()
			}
			p.mu.Unlock()
		}
	}
}

// shutdown stops the workers and waits for them to exit.
func (p *stealPool) shutdown() {
	if len(p.deqs) == 0 {
		return
	}
	p.mu.Lock()
	p.stop = true
	p.workCond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// run is the exploration loop: the merged order is the FIFO BFS
// discovery order, and all verdict-relevant bookkeeping happens here,
// sequentially, while the pool expands outstanding states.
func (e *explorer) run(ctx context.Context) (*Result, error) {
	arg, init := e.seed()
	seen := map[stateID]struct{}{init.id: {}}

	order := []*slot{init}
	numStates := 0
	var races []*Trace
	var widened map[acfa.Loc]bool
	if e.j.Enabled() {
		widened = make(map[acfa.Loc]bool)
	}

	p := newStealPool(e, e.opts.parallelism()-1)
	defer p.shutdown()

	var retErr error
	breakAt := -1
	var fresh []*slot
merge:
	for i := 0; i < len(order); i++ {
		if err := ctx.Err(); err != nil {
			// Cancellation: no drain — an aborted run's journal is not
			// held to the determinism contract.
			return nil, err
		}
		sl := order[i]
		recs, isRace := p.resolve(sl)
		numStates++
		e.cStates.Inc()
		if numStates > e.opts.maxStates() {
			retErr = fmt.Errorf("reach: state budget exceeded (%d states)", e.opts.maxStates())
			breakAt = i
			break merge
		}
		if isRace {
			e.cRaces.Inc()
			races = append(races, buildTrace(sl))
			if len(races) >= e.opts.maxRaces() {
				// Enough counterexamples for this refinement round; the
				// ARG is partial but unused on the error path.
				breakAt = i
				break merge
			}
		}
		fresh = fresh[:0]
		for _, rec := range recs {
			// ARG bookkeeping happens here, in deterministic order, not
			// in the parallel expansion phase. A main move keeps the
			// context (and its id); an env move interns the moved one.
			id := stateID{ts: arg.intern(rec.ts), ctx: sl.id.ctx}
			c := sl.state.Ctx
			if env := rec.op.EnvEdge; env != nil {
				arg.union(sl.id.ts, id.ts)
				id.ctx, c = e.ctxs.move(c, env.Src, env.Dst, e.opts.K)
			} else {
				arg.connectMain(sl.id.ts, rec.op.MainEdge, id.ts)
			}
			if _, ok := seen[id]; ok {
				continue
			}
			seen[id] = struct{}{}
			ns := &slot{state: State{TS: rec.ts, Ctx: c}, id: id, parent: sl, op: rec.op}
			order = append(order, ns)
			fresh = append(fresh, ns)
			e.emitWidened(widened, &sl.state, &ns.state)
		}
		sl.recs = nil // merged; nothing reads them again
		p.publish(fresh, len(order)-(i+1))
	}
	if breakAt >= 0 {
		p.drain(order[breakAt+1:])
	}
	if retErr != nil {
		return nil, retErr
	}
	return &Result{Races: races, ARG: arg, NumStates: numStates}, nil
}
