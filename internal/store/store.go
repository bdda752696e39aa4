// Package store is the certificate store behind the checker's
// incremental re-checking: the engine's reports keyed by a canonical
// serialization of everything that determines the verdict — the sliced
// thread CFA, the race variable, and the engine configuration.
//
// The store is the daemon's memory between requests. When a program
// revision is re-submitted, each target's sliced cone of influence is
// re-serialized; an unchanged cone finds its previous report and the
// verdict is re-established from the report's evidence (a Safe report's
// certificate is re-verified with Algorithm Check, an Unsafe report's
// race trace formula is re-checked for satisfiability) instead of
// re-running context inference.
//
// The map key is the serialization itself, so a hit means the bytes are
// equal: there is no hash whose collisions could stand in for equality.
package store

import (
	"container/list"
	"sync"

	icirc "circ/internal/circ"
)

// Stats reports what only the store knows: its size and its LRU
// evictions. Entries is the current entry count and MaxEntries the cap
// (0 = unbounded); Evictions counts entries dropped by the cap; Bytes
// estimates the resident evidence footprint, with BytesHighWater /
// EntriesHighWater the largest values observed — the daemon's growth
// watermarks. Lookup traffic (hits, misses, writes, reuses) is counted
// by the checker that drives the store, in its metrics registry.
type Stats struct {
	Evictions        int64
	Entries          int
	MaxEntries       int
	Bytes            int64
	BytesHighWater   int64
	EntriesHighWater int64
}

// entry is one stored report with the serialization it is keyed under
// and its charged size.
type entry struct {
	canon string
	rep   *icirc.Report
	size  int64
}

// Store is a concurrency-safe map from canonical serializations to
// reports, with least-recently-used eviction when capped. One mutex
// guards the map, the recency list and the figures. The zero value is
// not usable; call New or NewLRU.
type Store struct {
	mu         sync.Mutex
	maxEntries int                      // 0 = unbounded
	items      map[string]*list.Element // values are *entry
	lru        *list.List               // front = most recently used
	stats      Stats
}

// New returns an empty, unbounded store.
func New() *Store { return NewLRU(0) }

// NewLRU returns an empty store holding at most maxEntries entries,
// evicting the least recently used entry on overflow. maxEntries <= 0
// means unbounded (identical to New).
func NewLRU(maxEntries int) *Store {
	return &Store{
		maxEntries: max(maxEntries, 0),
		items:      make(map[string]*list.Element),
		lru:        list.New(),
	}
}

// Get returns the report stored under canon and marks it most recently
// used. Stored reports are shared and must not be modified.
func (s *Store) Get(canon []byte) (*icirc.Report, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[string(canon)]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry).rep, true
}

// Put stores rep under canon, replacing any previous report (e.g. after
// a failed revalidation). The watermarks are sampled after the insert;
// on a capped store the least recently used entries are then evicted
// until the store fits its bound again.
func (s *Store) Put(canon []byte, rep *icirc.Report) {
	if s == nil || rep == nil || len(canon) == 0 {
		return
	}
	e := &entry{canon: string(canon), rep: rep}
	e.size = entrySize(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[e.canon]; ok {
		s.remove(el)
	}
	s.items[e.canon] = s.lru.PushFront(e)
	s.stats.Bytes += e.size
	s.stats.BytesHighWater = max(s.stats.BytesHighWater, s.stats.Bytes)
	s.stats.EntriesHighWater = max(s.stats.EntriesHighWater, int64(s.lru.Len()))
	for s.maxEntries > 0 && s.lru.Len() > s.maxEntries {
		s.remove(s.lru.Back())
		s.stats.Evictions++
	}
}

// remove drops el from the map and the list; s.mu must be held.
func (s *Store) remove(el *list.Element) {
	e := s.lru.Remove(el).(*entry)
	delete(s.items, e.canon)
	s.stats.Bytes -= e.size
}

// entrySize estimates an entry's resident footprint: the retained
// canonical serialization dominates, plus fixed overheads for the
// evidence structures (interned expressions are shared process-wide, so
// only the slice headers and per-element pointers are charged here).
func entrySize(e *entry) int64 {
	const fixed = 256
	r := e.rep
	sz := int64(fixed + len(e.canon) + len(r.Reason))
	sz += int64(len(r.Preds)+len(r.TF)) * 16
	for key := range r.Witness {
		sz += int64(len(key)) + 40
	}
	if r.LastACFA != nil {
		sz += 512
	}
	if r.Race != nil {
		sz += 256
	}
	return sz
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Stats snapshots the store's size, evictions and watermarks.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.MaxEntries = s.maxEntries
	return st
}
