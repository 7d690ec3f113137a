package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestIndexedHeapBasicOrdering(t *testing.T) {
	var h IndexedHeap
	h.Fix(3, 5.0)
	h.Fix(1, 2.0)
	h.Fix(2, 9.0)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	if k, id, ok := h.Min(); !ok || id != 1 || k != 2.0 {
		t.Fatalf("Min = (%g,%d,%v), want (2,1,true)", k, id, ok)
	}
	// Re-key the min upward; id 3 becomes the min.
	h.Fix(1, 7.0)
	if _, id, _ := h.Min(); id != 3 {
		t.Fatalf("after re-key, min id = %d, want 3", id)
	}
	var got []int
	for {
		_, id, ok := h.Pop()
		if !ok {
			break
		}
		got = append(got, id)
	}
	want := []int{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestIndexedHeapTiesOrderById(t *testing.T) {
	var h IndexedHeap
	for _, id := range []int{5, 2, 9, 0} {
		h.Fix(id, 1.0)
	}
	want := []int{0, 2, 5, 9}
	for _, w := range want {
		_, id, ok := h.Pop()
		if !ok || id != w {
			t.Fatalf("tie pop = %d, want %d", id, w)
		}
	}
}

func TestIndexedHeapRemove(t *testing.T) {
	var h IndexedHeap
	for i := 0; i < 10; i++ {
		h.Fix(i, float64(10-i))
	}
	if !h.Remove(0) { // the max
		t.Fatal("Remove(0) = false")
	}
	if h.Remove(0) {
		t.Fatal("double Remove(0) = true")
	}
	if !h.Remove(9) { // the min
		t.Fatal("Remove(9) = false")
	}
	if h.Contains(9) || !h.Contains(5) {
		t.Fatal("Contains wrong after removals")
	}
	if _, id, _ := h.Min(); id != 8 {
		t.Fatalf("min after removals = %d, want 8", id)
	}
	if h.Len() != 8 {
		t.Fatalf("Len = %d, want 8", h.Len())
	}
}

// TestIndexedHeapRandomized drives random Fix/Remove/Pop against a
// reference map and checks pop order and index consistency.
func TestIndexedHeapRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h IndexedHeap
	ref := map[int]float64{}
	const ids = 200
	for op := 0; op < 5000; op++ {
		id := rng.Intn(ids)
		switch rng.Intn(3) {
		case 0, 1: // insert or re-key
			k := rng.Float64() * 100
			h.Fix(id, k)
			ref[id] = k
		case 2:
			_, inRef := ref[id]
			if h.Remove(id) != inRef {
				t.Fatalf("op %d: Remove(%d) disagreed with reference", op, id)
			}
			delete(ref, id)
		}
		if h.Len() != len(ref) {
			t.Fatalf("op %d: Len %d != ref %d", op, h.Len(), len(ref))
		}
	}
	// Drain and compare with the reference sorted by (key, id).
	type kv struct {
		id int
		k  float64
	}
	var want []kv
	for id, k := range ref {
		want = append(want, kv{id, k})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].k != want[j].k {
			return want[i].k < want[j].k
		}
		return want[i].id < want[j].id
	})
	for i, w := range want {
		k, id, ok := h.Pop()
		if !ok || id != w.id || k != w.k {
			t.Fatalf("drain %d: got (%g,%d,%v), want (%g,%d)", i, k, id, ok, w.k, w.id)
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty after drain")
	}
}
