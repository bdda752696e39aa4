package store

import (
	"fmt"
	"sync"
	"testing"

	icirc "circ/internal/circ"
	"circ/internal/expr"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	canon := []byte("cfa1|…|x|k=1")
	if _, ok := s.Get(canon); ok {
		t.Fatalf("empty store reported a hit")
	}
	rep := &icirc.Report{Verdict: icirc.Safe, K: 2, Rounds: 3,
		Preds: []expr.Expr{expr.Var{Name: "state"}}}
	s.Put(canon, rep)
	got, ok := s.Get(canon)
	if !ok || got != rep {
		t.Fatalf("Get = %v, %v; want the stored report", got, ok)
	}
	if st := s.Stats(); st.Entries != 1 || st.EntriesHighWater != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A serialization differing from a stored one in a single byte misses:
// the lookup is by the bytes themselves.
func TestGetComparesCanonicalBytes(t *testing.T) {
	s := New()
	canon := []byte("payload-a")
	s.Put(canon, &icirc.Report{Verdict: icirc.Unsafe})
	for i := range canon {
		probe := append([]byte(nil), canon...)
		probe[i] ^= 1
		if _, ok := s.Get(probe); ok {
			t.Fatalf("hit for %q, stored %q", probe, canon)
		}
	}
	if _, ok := s.Get(canon[:len(canon)-1]); ok {
		t.Fatalf("hit for a prefix of the stored serialization")
	}
	if _, ok := s.Get(canon); !ok {
		t.Fatalf("exact serialization missed")
	}
}

func TestOverwrite(t *testing.T) {
	s := New()
	canon := []byte("same-key")
	s.Put(canon, &icirc.Report{Verdict: icirc.Safe})
	s.Put(canon, &icirc.Report{Verdict: icirc.Unsafe, Reason: "revalidation failed"})
	rep, ok := s.Get(canon)
	if !ok || rep.Verdict != icirc.Unsafe {
		t.Fatalf("overwrite not visible: %+v, %v", rep, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", s.Len())
	}
}

func TestNilStoreIsNoOp(t *testing.T) {
	var s *Store
	s.Put([]byte("x"), &icirc.Report{})
	if _, ok := s.Get([]byte("x")); ok {
		t.Fatalf("nil store hit")
	}
	if s.Len() != 0 || s.Stats() != (Stats{}) {
		t.Fatalf("nil store not empty")
	}
}

func TestLRUEviction(t *testing.T) {
	s := NewLRU(3)
	canon := func(i int) []byte { return []byte(fmt.Sprintf("entry-%d", i)) }
	for i := 0; i < 5; i++ {
		s.Put(canon(i), &icirc.Report{Verdict: icirc.Safe})
	}
	st := s.Stats()
	if st.Entries != 3 || st.Evictions != 2 {
		t.Fatalf("stats after 5 puts at cap 3 = %+v", st)
	}
	// 0 and 1 were least recently used and must be gone; 2..4 remain.
	for i := 0; i < 2; i++ {
		if _, ok := s.Get(canon(i)); ok {
			t.Fatalf("entry %d survived eviction", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := s.Get(canon(i)); !ok {
			t.Fatalf("entry %d evicted prematurely", i)
		}
	}
}

func TestLRUGetRefreshesRecency(t *testing.T) {
	s := NewLRU(3)
	canon := func(i int) []byte { return []byte(fmt.Sprintf("entry-%d", i)) }
	for i := 0; i < 3; i++ {
		s.Put(canon(i), &icirc.Report{Verdict: icirc.Safe})
	}
	// Touch 0: it becomes most recent, so the next overflow evicts 1.
	if _, ok := s.Get(canon(0)); !ok {
		t.Fatal("warm entry missing")
	}
	s.Put(canon(3), &icirc.Report{Verdict: icirc.Safe})
	if _, ok := s.Get(canon(1)); ok {
		t.Fatal("entry 1 should have been the LRU victim")
	}
	if _, ok := s.Get(canon(0)); !ok {
		t.Fatal("recently touched entry 0 evicted")
	}
}

func TestLRUOverwriteDoesNotEvict(t *testing.T) {
	s := NewLRU(2)
	canon := []byte("same-key")
	s.Put(canon, &icirc.Report{Verdict: icirc.Safe})
	s.Put(canon, &icirc.Report{Verdict: icirc.Unsafe})
	st := s.Stats()
	if st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("overwrite at cap miscounted: %+v", st)
	}
}

func TestBytesAccounting(t *testing.T) {
	s := New()
	s.Put([]byte("a-canonical-serialization"), &icirc.Report{Verdict: icirc.Safe,
		Preds: []expr.Expr{expr.Var{Name: "x"}}})
	st := s.Stats()
	if st.Bytes <= 0 {
		t.Fatalf("Bytes = %d, want > 0", st.Bytes)
	}
	if st.BytesHighWater < st.Bytes || st.EntriesHighWater < int64(st.Entries) {
		t.Fatalf("high water below live: %+v", st)
	}
	// Eviction gives bytes back but the watermark holds.
	s2 := NewLRU(1)
	s2.Put([]byte("first"), &icirc.Report{})
	s2.Put([]byte("second"), &icirc.Report{})
	st2 := s2.Stats()
	if st2.Entries != 1 || st2.Evictions != 1 {
		t.Fatalf("cap-1 stats = %+v", st2)
	}
	if st2.EntriesHighWater != 2 {
		t.Fatalf("EntriesHighWater = %d, want 2", st2.EntriesHighWater)
	}
	if st2.BytesHighWater <= st2.Bytes {
		t.Fatalf("watermark %d should exceed live %d after eviction",
			st2.BytesHighWater, st2.Bytes)
	}
	if st2.MaxEntries != 1 {
		t.Fatalf("MaxEntries = %d, want 1", st2.MaxEntries)
	}
}

func TestConcurrentLRU(t *testing.T) {
	s := NewLRU(20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				canon := []byte(fmt.Sprintf("unit-%d", i%50))
				if _, ok := s.Get(canon); !ok {
					s.Put(canon, &icirc.Report{Verdict: icirc.Safe, K: i})
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries > 20 {
		t.Fatalf("Entries = %d exceeds cap 20", st.Entries)
	}
	if st.Bytes < 0 {
		t.Fatalf("Bytes went negative: %d", st.Bytes)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				canon := []byte(fmt.Sprintf("unit-%d", i%50))
				if _, ok := s.Get(canon); !ok {
					s.Put(canon, &icirc.Report{Verdict: icirc.Safe, K: i})
				}
			}
		}(w)
	}
	wg.Wait()
	if n := s.Len(); n != 50 {
		t.Fatalf("Len = %d, want 50", n)
	}
}
