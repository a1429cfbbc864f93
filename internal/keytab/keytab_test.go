package keytab

import (
	"math/rand"
	"testing"
)

// TestTableMatchesMap drives one table through several doublings, a Dirty
// and reuse, against a map from key to first-insertion index.
func TestTableMatchesMap(t *testing.T) {
	var tab Table
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 3; round++ {
		tab.Reset()
		want := map[uint64]int32{}
		for len(want) < 3000>>round {
			key := rng.Uint64() >> uint(rng.Intn(64)) // all magnitudes, 0 included
			if _, ok := want[key]; !ok {
				want[key] = int32(len(want))
			}
			if got := tab.Insert(key); got != want[key] {
				t.Fatalf("round %d: Insert(%#x) = %d, want %d", round, key, got, want[key])
			}
		}
		if tab.Len() != len(want) {
			t.Fatalf("round %d: Len() = %d, want %d", round, tab.Len(), len(want))
		}
		if round == 0 && len(tab.slots) < 2*len(want) {
			t.Fatalf("%d slots hold %d keys: load above 1/2", len(tab.slots), len(want))
		}
		for key, idx := range want {
			if got := tab.Find(key); got != idx {
				t.Fatalf("round %d: Find(%#x) = %d, want %d", round, key, got, idx)
			}
		}
		for probe := 0; probe < 1000; probe++ {
			key := rng.Uint64()
			if _, ok := want[key]; !ok && tab.Find(key) != -1 {
				t.Fatalf("round %d: Find(%#x) hit an absent key", round, key)
			}
		}
		if round == 1 {
			// Dirty must leave no slot empty: a table whose next user forgot
			// to reset it then finds sentinels, not a clean table.
			tab.Dirty()
			for i, s := range tab.slots[:cap(tab.slots)] {
				if s.ref == 0 {
					t.Fatalf("slots[%d] empty after Dirty", i)
				}
			}
		}
	}

	// ResetFor sizes the slots to the key count at hand, keeps the larger
	// array allocated, and serves the same answers.
	tab.ResetFor(5)
	if len(tab.slots) != minSlots || cap(tab.slots) < 4096 {
		t.Fatalf("ResetFor(5): %d slots of capacity %d", len(tab.slots), cap(tab.slots))
	}
	for k := uint64(0); k < 100; k++ {
		if got := tab.Insert(k * 7); got != int32(k) {
			t.Fatalf("after ResetFor: Insert(%d) = %d, want %d", k*7, got, k)
		}
	}
	if tab.Find(1) != -1 || tab.Find(693) != 99 || tab.Bytes() != int64(cap(tab.slots))*16 {
		t.Fatalf("after ResetFor: Find(1) = %d, Find(693) = %d, Bytes() = %d", tab.Find(1), tab.Find(693), tab.Bytes())
	}
}
