// Package pq provides an indexed binary min-heap keyed by int64 priorities.
// It supports decrease-key by item index, which Dijkstra-style algorithms
// need; indices are dense integers (vertex IDs).
package pq

// entry is one heap slot: the priority stored inline with its item, so a
// sift compares keys without a second indirection.
type entry struct {
	key  int64
	item int32
}

// Heap is an indexed min-heap over items 0..n-1 (n < 2³¹). The zero value
// is not usable; construct with New.
type Heap struct {
	heap []entry // heap[i] = entry at heap position i
	pos  []int32 // pos[item] = heap position, or -1 if absent
}

// New returns a heap able to hold items 0..n-1.
func New(n int) *Heap {
	h := &Heap{
		//lint:allow contracts construction: runs once per workspace, buffers reused across every run
		heap: make([]entry, 0, n),
		//lint:allow contracts construction: runs once per workspace, buffers reused across every run
		pos: make([]int32, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of queued items.
func (h *Heap) Len() int { return len(h.heap) }

// Contains reports whether item is queued.
func (h *Heap) Contains(item int) bool { return h.pos[item] >= 0 }

// Key returns item's current priority; valid only while Contains(item).
func (h *Heap) Key(item int) int64 { return h.heap[h.pos[item]].key }

// Push inserts item with the given key, or updates its key if it is
// already queued: a decrease sifts up, an increase sifts down.
func (h *Heap) Push(item int, key int64) {
	if i := h.pos[item]; i >= 0 {
		if key < h.heap[i].key {
			h.up(int(i), entry{key: key, item: int32(item)})
		} else {
			h.down(int(i), entry{key: key, item: int32(item)})
		}
		return
	}
	//lint:allow contracts amortized: New/Grow precap the buffer to the item universe, so append stays in place
	h.heap = append(h.heap, entry{})
	h.up(len(h.heap)-1, entry{key: key, item: int32(item)})
}

// Pop removes and returns the item with minimum key. It panics on an empty
// heap.
func (h *Heap) Pop() (item int, key int64) {
	top := h.heap[0]
	last := len(h.heap) - 1
	moved := h.heap[last]
	h.heap = h.heap[:last]
	h.pos[top.item] = -1
	if last > 0 {
		h.down(0, moved)
	}
	return int(top.item), top.key
}

// Reset empties the heap for reuse without reallocating.
func (h *Heap) Reset() {
	for _, e := range h.heap {
		h.pos[e.item] = -1
	}
	h.heap = h.heap[:0]
}

// Grow ensures the heap can hold items 0..n-1, reallocating the index
// arrays only when n exceeds the current capacity. Queued items survive a
// growing call; workspace reuse across graphs of different sizes depends on
// this (callers Reset between uses, Grow only when the universe expands).
func (h *Heap) Grow(n int) {
	if n <= len(h.pos) {
		return
	}
	//lint:allow contracts amortized: reallocates only when the item universe expands
	pos := make([]int32, n)
	copy(pos, h.pos)
	for i := len(h.pos); i < n; i++ {
		pos[i] = -1
	}
	h.pos = pos
	if n > cap(h.heap) {
		//lint:allow contracts amortized: reallocates only when the item universe expands
		heap := make([]entry, len(h.heap), n)
		copy(heap, h.heap)
		h.heap = heap
	}
}

// Cap reports the size of the item universe the heap currently supports.
func (h *Heap) Cap() int { return len(h.pos) }

// up moves the hole at position i rootward past every parent with a
// larger key, then drops e into it.
//
//krsp:terminates(i moves strictly toward the heap root each pass)
func (h *Heap) up(i int, e entry) {
	for i > 0 {
		p := (i - 1) / 2
		if e.key >= h.heap[p].key {
			break
		}
		h.heap[i] = h.heap[p]
		h.pos[h.heap[i].item] = int32(i)
		i = p
	}
	h.heap[i] = e
	h.pos[e.item] = int32(i)
}

// down moves the hole at position i leafward, promoting the smaller child
// while it has a smaller key than e, then drops e into it.
//
//krsp:terminates(i strictly descends a heap of ≤ n entries)
func (h *Heap) down(i int, e entry) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small, sk := i, e.key
		if l < n && h.heap[l].key < sk {
			small, sk = l, h.heap[l].key
		}
		if r < n && h.heap[r].key < sk {
			small = r
		}
		if small == i {
			break
		}
		h.heap[i] = h.heap[small]
		h.pos[h.heap[i].item] = int32(i)
		i = small
	}
	h.heap[i] = e
	h.pos[e.item] = int32(i)
}
