package sim

// IndexedHeap is a min-heap of (key, id) pairs addressable by id: the
// netsim engine keeps one entry per active flow, keyed by the flow's
// projected completion time, so finding the next completion is O(1) and
// re-projecting a flow whose rate changed is O(log n) — instead of the
// O(n) full scan per event the engine used to do. Ties order by id,
// which keeps pop order deterministic (and matches the historical
// ascending-index completion order for simultaneous finishes).
//
// Ids must be small non-negative integers; the heap allocates a dense
// position index sized by the largest id ever inserted, which fits the
// engine's recycled FlowID space exactly. The zero value is ready to use.
type IndexedHeap struct {
	ids []int
	key []float64
	pos []int32 // id → heap slot + 1; 0 = absent
}

// Len returns the number of entries.
func (h *IndexedHeap) Len() int { return len(h.ids) }

// Min returns the smallest (key, id) entry without removing it.
func (h *IndexedHeap) Min() (key float64, id int, ok bool) {
	if len(h.ids) == 0 {
		return 0, 0, false
	}
	return h.key[0], h.ids[0], true
}

// Contains reports whether id has an entry.
func (h *IndexedHeap) Contains(id int) bool {
	return id >= 0 && id < len(h.pos) && h.pos[id] != 0
}

// Grow pre-sizes the heap for ids up to maxID and n simultaneous
// entries. A caller that knows its population — the sharded engine
// re-projecting a shard's active flows — pays one allocation per
// backing array instead of the append-growth sequence. Lengths are
// untouched; undersized arguments are a no-op.
func (h *IndexedHeap) Grow(maxID, n int) {
	// At-least-doubling keeps a Grow-per-round caller amortized: exact
	// sizing would reallocate on every round of a steadily growing
	// population, defeating the point.
	if need := maxID + 1; need > cap(h.pos) {
		if c := 2 * cap(h.pos); need < c {
			need = c
		}
		np := make([]int32, len(h.pos), need)
		copy(np, h.pos)
		h.pos = np
	}
	if n > cap(h.ids) {
		if c := 2 * cap(h.ids); n < c {
			n = c
		}
		ni := make([]int, len(h.ids), n)
		copy(ni, h.ids)
		h.ids = ni
		nk := make([]float64, len(h.key), n)
		copy(nk, h.key)
		h.key = nk
	}
}

// Fix inserts id with the given key, or re-keys it if already present,
// restoring heap order in O(log n).
func (h *IndexedHeap) Fix(id int, key float64) {
	if id < 0 {
		panic("sim: negative heap id")
	}
	for id >= len(h.pos) {
		h.pos = append(h.pos, 0)
	}
	if p := h.pos[id]; p != 0 {
		i := int(p - 1)
		old := h.key[i]
		h.key[i] = key
		if key < old {
			h.up(i)
		} else {
			h.down(i)
		}
		return
	}
	h.ids = append(h.ids, id)
	h.key = append(h.key, key)
	h.pos[id] = int32(len(h.ids))
	h.up(len(h.ids) - 1)
}

// Remove deletes id's entry; it reports whether one existed.
func (h *IndexedHeap) Remove(id int) bool {
	if !h.Contains(id) {
		return false
	}
	h.removeAt(int(h.pos[id] - 1))
	return true
}

// Pop removes and returns the smallest entry.
func (h *IndexedHeap) Pop() (key float64, id int, ok bool) {
	if len(h.ids) == 0 {
		return 0, 0, false
	}
	key, id = h.key[0], h.ids[0]
	h.removeAt(0)
	return key, id, true
}

func (h *IndexedHeap) removeAt(i int) {
	last := len(h.ids) - 1
	h.pos[h.ids[i]] = 0
	if i != last {
		h.ids[i] = h.ids[last]
		h.key[i] = h.key[last]
		h.pos[h.ids[i]] = int32(i + 1)
	}
	h.ids = h.ids[:last]
	h.key = h.key[:last]
	if i < last && !h.up(i) {
		h.down(i)
	}
}

func (h *IndexedHeap) less(i, j int) bool {
	if h.key[i] != h.key[j] {
		return h.key[i] < h.key[j]
	}
	return h.ids[i] < h.ids[j]
}

func (h *IndexedHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.key[i], h.key[j] = h.key[j], h.key[i]
	h.pos[h.ids[i]] = int32(i + 1)
	h.pos[h.ids[j]] = int32(j + 1)
}

// up sifts i toward the root; it reports whether i moved.
func (h *IndexedHeap) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// down sifts i toward the leaves; it reports whether i moved.
func (h *IndexedHeap) down(i int) bool {
	moved := false
	n := len(h.ids)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.less(right, left) {
			child = right
		}
		if !h.less(child, i) {
			break
		}
		h.swap(i, child)
		i = child
		moved = true
	}
	return moved
}
