package expr

// Arena snapshot/compaction: a long-lived process (the circd daemon)
// interns every formula of every job into the process-wide arena, which
// is otherwise append-only. Compact sweeps the arena between jobs,
// reclaiming the payloads of nodes unreachable from a caller-supplied
// root set while preserving the identity of every live ID.
//
// Invariants the rest of the engine relies on:
//
//   - Live IDs keep their value: the nodes slice is never reindexed, so
//     FromID/IDView/IDHash/LookupID on a live ID return exactly what they
//     returned before the sweep, and ID-keyed caches holding live keys
//     stay valid.
//   - Dead IDs are never reused: tombstones keep their slot, and new
//     interns always append. A stale dead key in an external cache can
//     therefore never alias a new formula — it is merely garbage.
//   - The boolean constants are always live (IDBoolValue never locks and
//     the engine treats their IDs as fixed).
//
// What a caller must guarantee: the root set covers every ID it will
// ever dereference again (memoised cube formulas, predicate sets,
// certificate-store evidence). Compacting while analyses are in flight
// is unsound — the daemon only compacts between jobs, with no job
// running.

// CompactStats reports one Compact pass.
type CompactStats struct {
	// Live and Freed count nodes surviving and tombstoned by the pass.
	Live, Freed int
	// FreedBytes is the estimated footprint reclaimed.
	FreedBytes int64
	// Generation is the arena generation after the pass (the total number
	// of Compact passes over the process lifetime).
	Generation uint64
}

// Compact tombstones every arena node not reachable from roots (through
// child links) and rebuilds the hash-cons indexes over the survivors.
// Memoised negation links into dead nodes are cleared (they re-memoise
// on demand). It returns what was reclaimed.
func Compact(roots []ID) CompactStats {
	ar.mu.Lock()
	defer ar.mu.Unlock()

	n := len(ar.nodes)
	mark := make([]bool, n+1) // 1-based, like IDs
	stack := make([]ID, 0, len(roots)+2)
	push := func(id ID) {
		if id != NoID && int(id) <= n && !mark[id] {
			mark[id] = true
			stack = append(stack, id)
		}
	}
	push(falseID)
	push(trueID)
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range ar.nodes[id-1].kids {
			push(k)
		}
	}

	st := CompactStats{}
	// Sweep: tombstone the dead, clear dangling negation links on the
	// live, and rebuild the lookup indexes from the survivors.
	byHash := make(map[uint64][]ID)
	ints := make(map[int64]ID)
	vars := make(map[string]ID)
	for i := range ar.nodes {
		id := ID(i + 1)
		nd := &ar.nodes[i]
		if nd.kind == KindInvalid {
			continue // already a tombstone from an earlier pass
		}
		if !mark[id] {
			st.Freed++
			st.FreedBytes += nodeBytes(len(nd.name), len(nd.kids))
			*nd = inode{} // kind == KindInvalid; payloads released
			continue
		}
		st.Live++
		if nd.neg != NoID && !mark[nd.neg] {
			nd.neg = NoID
		}
		byHash[nd.hash] = append(byHash[nd.hash], id)
		switch nd.kind {
		case KindInt:
			ints[nd.ival] = id
		case KindVar:
			vars[nd.name] = id
		}
	}
	ar.byHash, ar.ints, ar.vars = byHash, ints, vars
	ar.live = st.Live
	ar.bytes -= st.FreedBytes
	ar.gen++
	st.Generation = ar.gen
	return st
}

// Live reports whether id refers to a live (non-tombstoned) arena node.
// Out-of-range and NoID report false.
func Live(id ID) bool {
	ar.mu.RLock()
	ok := id != NoID && int(id) <= len(ar.nodes) && ar.nodes[id-1].kind != KindInvalid
	ar.mu.RUnlock()
	return ok
}
