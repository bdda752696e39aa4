package reach

import "testing"

// TestStateSet: key 0 and the largest key are ordinary members, and
// membership holds on both sides of a growth boundary.
func TestStateSet(t *testing.T) {
	var s stateSet
	top := key(int(maxID-1), int(maxID-1))
	for _, k := range []uint64{0, top, key(int(maxID-1), 0), key(0, int(maxID-1))} {
		if !s.add(k) {
			t.Fatalf("fresh key %#x reported present", k)
		}
		if s.add(k) {
			t.Fatalf("key %#x reported absent after insertion", k)
		}
	}

	// Fill the first table to its load limit; the next insert doubles it.
	var keys []uint64
	for i := 0; s.n < setInit/2; i++ {
		k := key(i, 3*i+1)
		if !s.add(k) {
			t.Fatalf("fresh key %#x reported present", k)
		}
		keys = append(keys, k)
	}
	if len(s.tab) != setInit {
		t.Fatalf("%d entries holding %d keys, want %d", len(s.tab), s.n, setInit)
	}
	for i := 0; len(s.tab) == setInit; i++ {
		k := key(int(maxID-2)-i, i)
		if !s.add(k) {
			t.Fatalf("fresh key %#x reported present", k)
		}
		keys = append(keys, k)
	}
	if len(s.tab) != 2*setInit || s.n != setInit/2+1 {
		t.Fatalf("%d entries holding %d keys after growth, want %d holding %d", len(s.tab), s.n, 2*setInit, setInit/2+1)
	}
	for _, k := range append(keys, 0, top) {
		if s.add(k) {
			t.Fatalf("key %#x lost across growth", k)
		}
	}
	if s.n != setInit/2+1 {
		t.Fatalf("%d keys after re-adding, want %d", s.n, setInit/2+1)
	}
}

// FuzzStateSet checks the seen set's membership answers against a map:
// each add reports a key new exactly when the map lacks it. Keys are
// built from three bytes each, a thread-state id and a context id
// shifted up to the top of their range, so runs mix small dense ids,
// large ones and repeats.
func FuzzStateSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 1, 2, 3, 1, 2, 3})
	f.Add(make([]byte, 3*400))
	seq := make([]byte, 0, 3*300)
	for i := range 300 {
		seq = append(seq, byte(i), byte(i>>3), byte(i%7))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s stateSet
		want := make(map[uint64]bool)
		for i := 0; i+3 <= len(data); i += 3 {
			shift := int(data[i+2])
			k := key(int(data[i])<<(shift%24), int(data[i+1])<<(shift/24%24))
			if got := s.add(k); got == want[k] {
				t.Fatalf("add(%#x) = %v, want %v", k, got, !want[k])
			}
			want[k] = true
			if 2*s.n > len(s.tab) {
				t.Fatalf("%d keys in %d entries, over half full", s.n, len(s.tab))
			}
		}
		if s.n != len(want) {
			t.Fatalf("set holds %d keys, want %d", s.n, len(want))
		}
		for k := range want {
			if s.add(k) {
				t.Fatalf("key %#x reported absent after insertion", k)
			}
		}
	})
}
