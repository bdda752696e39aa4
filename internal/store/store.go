// Package store is the content-addressed certificate store behind the
// checker's incremental re-checking: verdict evidence keyed by a
// canonical serialization of everything that determines the verdict —
// the sliced thread CFA, the race variable, and the engine configuration.
//
// The store is the daemon's memory between requests. When a program
// revision is re-submitted, each target's sliced cone of influence is
// re-serialized; an unchanged cone finds its previous entry and the
// verdict is re-established from the stored evidence (a Safe entry's
// certificate is re-verified with Algorithm Check, an Unsafe entry's
// race witness is re-checked for satisfiability) instead of re-running
// context inference.
//
// Lookups never trust the hash alone: every entry retains the full
// canonical serialization it was stored under, and Get compares it
// byte-for-byte, so a SHA-256 collision degrades to a cache miss rather
// than a wrong verdict.
package store

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"circ/internal/acfa"
	"circ/internal/expr"
	"circ/internal/refine"
)

// Key addresses one entry: SHA-256 of the canonical serialization of
// (sliced CFA, race variable, engine configuration).
type Key [sha256.Size]byte

// KeyOf hashes a canonical serialization.
func KeyOf(canon []byte) Key { return sha256.Sum256(canon) }

// Verdict mirrors the engine's verdict enumeration without importing it
// (the engine package is free to depend on the store in the future).
type Verdict int

// Verdicts.
const (
	Unknown Verdict = iota
	Safe
	Unsafe
)

// Entry is the stored evidence for one (sliced CFA, target, config)
// verdict. Exactly the fields needed to re-establish the verdict are
// kept; transient per-run data (metrics, iteration history) is not.
type Entry struct {
	// Canon is the full canonical serialization the entry was keyed
	// under; Get compares it byte-for-byte against the probe.
	Canon []byte
	// Verdict is the stored outcome.
	Verdict Verdict

	// Safe evidence: the inferred context model, predicate set, and
	// counter parameter — the certificate Algorithm Check re-verifies —
	// plus the round count for faithful reporting.
	ACFA   *acfa.ACFA
	Preds  []expr.Expr
	K      int
	Rounds int

	// Unsafe evidence: the concrete interleaved race trace, its SSA
	// trace formula (re-checked for satisfiability on reuse), and the
	// satisfying witness model.
	Race    *refine.Interleaving
	Witness map[string]int64
	TF      []expr.Expr

	// Unknown evidence: the engine's reason. Unknown verdicts are
	// deterministic given an identical canonical serialization, so they
	// replay without re-paying the exhausted budgets.
	Reason string
}

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

const numShards = 16

type shard struct {
	mu      sync.RWMutex
	entries map[Key]*Entry
}

// Store is a sharded, concurrency-safe, content-addressed map from keys
// to verdict evidence. The zero value is not usable; call New or NewLRU.
//
// A capped store (NewLRU with maxEntries > 0) additionally keeps a
// single global recency list so eviction is true LRU across shards, not
// per-shard approximate. The list has its own mutex and is never held
// together with a shard lock: Get/Put touch the shard first, then the
// list, and evictions delete from shards after the list decision is
// made. A concurrent Get can therefore briefly hit an entry the evictor
// is about to drop — harmless, since entries are immutable and the next
// lookup simply misses.
type Store struct {
	shards     [numShards]shard
	maxEntries int // 0 = unbounded

	lruMu sync.Mutex
	lru   *list.List            // front = most recently used; values are Key
	elems map[Key]*list.Element // only for capped stores

	evictions atomic.Int64
	bytes     atomic.Int64
	count     atomic.Int64
	bytesHW   atomic.Int64
	countHW   atomic.Int64
}

// New returns an empty, unbounded store.
func New() *Store { return NewLRU(0) }

// NewLRU returns an empty store holding at most maxEntries entries,
// evicting the least recently used entry on overflow. maxEntries <= 0
// means unbounded (identical to New).
func NewLRU(maxEntries int) *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].entries = make(map[Key]*Entry)
	}
	if maxEntries > 0 {
		s.maxEntries = maxEntries
		s.lru = list.New()
		s.elems = make(map[Key]*list.Element)
	}
	return s
}

func (s *Store) shard(k Key) *shard { return &s.shards[int(k[0])%numShards] }

// Get looks up the entry for canon, comparing the stored serialization
// byte-for-byte (the key is a content hash; equality of content is what
// soundness arguments rest on).
func (s *Store) Get(canon []byte) (*Entry, bool) {
	if s == nil {
		return nil, false
	}
	k := KeyOf(canon)
	sh := s.shard(k)
	sh.mu.RLock()
	e, ok := sh.entries[k]
	sh.mu.RUnlock()
	if !ok || string(e.Canon) != string(canon) {
		return nil, false
	}
	s.touch(k)
	return e, true
}

// touch marks k most recently used on capped stores.
func (s *Store) touch(k Key) {
	if s.maxEntries == 0 {
		return
	}
	s.lruMu.Lock()
	if el, ok := s.elems[k]; ok {
		s.lru.MoveToFront(el)
	}
	s.lruMu.Unlock()
}

// Put stores e under the hash of its canonical serialization,
// overwriting any previous entry (e.g. after a failed revalidation).
// On a capped store, the least recently used entries are evicted until
// the store fits its bound again.
func (s *Store) Put(e *Entry) {
	if s == nil || e == nil || len(e.Canon) == 0 {
		return
	}
	k := KeyOf(e.Canon)
	sh := s.shard(k)
	sh.mu.Lock()
	if old, ok := sh.entries[k]; ok {
		s.bytes.Add(-entrySize(old))
		s.count.Add(-1)
	}
	sh.entries[k] = e
	sh.mu.Unlock()
	s.bytes.Add(entrySize(e))
	s.count.Add(1)
	highWater(&s.bytesHW, s.bytes.Load())
	highWater(&s.countHW, s.count.Load())

	if s.maxEntries == 0 {
		return
	}
	var victims []Key
	s.lruMu.Lock()
	if el, ok := s.elems[k]; ok {
		s.lru.MoveToFront(el)
	} else {
		s.elems[k] = s.lru.PushFront(k)
	}
	for s.lru.Len() > s.maxEntries {
		back := s.lru.Back()
		vk := back.Value.(Key)
		s.lru.Remove(back)
		delete(s.elems, vk)
		victims = append(victims, vk)
	}
	s.lruMu.Unlock()
	for _, vk := range victims {
		vsh := s.shard(vk)
		vsh.mu.Lock()
		if victim, ok := vsh.entries[vk]; ok {
			delete(vsh.entries, vk)
			s.bytes.Add(-entrySize(victim))
			s.count.Add(-1)
			s.evictions.Add(1)
		}
		vsh.mu.Unlock()
	}
}

// entrySize estimates an entry's resident footprint: the retained
// canonical serialization dominates, plus fixed overheads for the
// evidence structures (interned expressions are shared process-wide, so
// only the slice headers and per-element pointers are charged here).
func entrySize(e *Entry) int64 {
	const fixed = 256
	sz := int64(fixed + len(e.Canon) + len(e.Reason))
	sz += int64(len(e.Preds)+len(e.TF)) * 16
	for key := range e.Witness {
		sz += int64(len(key)) + 40
	}
	if e.ACFA != nil {
		sz += 512
	}
	if e.Race != nil {
		sz += 256
	}
	return sz
}

// highWater raises hw to v if v is larger.
func highWater(hw *atomic.Int64, v int64) {
	for {
		cur := hw.Load()
		if v <= cur || hw.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	return int(s.count.Load())
}

// Stats snapshots the store's size, evictions and watermarks.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Evictions:        s.evictions.Load(),
		Entries:          s.Len(),
		MaxEntries:       s.maxEntries,
		Bytes:            s.bytes.Load(),
		BytesHighWater:   s.bytesHW.Load(),
		EntriesHighWater: s.countHW.Load(),
	}
}
