// Package ring implements a fixed-capacity FIFO ring buffer.
//
// MAGUS (Algorithm 3) maintains two fixed-size first-in-first-out queues:
// mem_throughput_ls, the recent memory-throughput history consumed by the
// trend predictor, and uncore_tune_ls, the binary log of tuning decisions
// consumed by the high-frequency detector. Both are instances of this
// buffer.
package ring

import "fmt"

// Buffer is a fixed-capacity FIFO queue. When full, pushing evicts the
// oldest element, mirroring the paper's push_back + erase(begin()) idiom.
// The zero value is not usable; construct with New.
type Buffer[T any] struct {
	data  []T
	head  int // index of oldest element
	count int
}

// New returns a buffer holding at most capacity elements.
func New[T any](capacity int) *Buffer[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("ring: non-positive capacity %d", capacity))
	}
	return &Buffer[T]{data: make([]T, capacity)}
}

// Filled returns a buffer at full capacity with every slot set to v —
// the paper initialises uncore_tune_ls as a list of ten zeros.
func Filled[T any](capacity int, v T) *Buffer[T] {
	b := New[T](capacity)
	for i := range b.data {
		b.data[i] = v
	}
	b.count = capacity
	return b
}

// Cap returns the fixed capacity.
func (b *Buffer[T]) Cap() int { return len(b.data) }

// Len returns the number of stored elements.
func (b *Buffer[T]) Len() int { return b.count }

// Full reports whether the buffer is at capacity.
func (b *Buffer[T]) Full() bool { return b.count == len(b.data) }

// Push appends v, evicting the oldest element if full. It returns the
// evicted element and whether an eviction happened.
func (b *Buffer[T]) Push(v T) (evicted T, wasFull bool) {
	if b.Full() {
		evicted = b.data[b.head]
		b.data[b.head] = v
		b.head = (b.head + 1) % len(b.data)
		return evicted, true
	}
	b.data[(b.head+b.count)%len(b.data)] = v
	b.count++
	return evicted, false
}

// At returns the i-th element in FIFO order (0 = oldest). It panics on an
// out-of-range index.
func (b *Buffer[T]) At(i int) T {
	if i < 0 || i >= b.count {
		panic(fmt.Sprintf("ring: index %d out of range [0,%d)", i, b.count))
	}
	return b.data[(b.head+i)%len(b.data)]
}

// Fill resets the buffer to full capacity with every slot set to v,
// without allocating — the in-place equivalent of building a new
// Filled buffer (MAGUS re-initialises uncore_tune_ls this way when it
// re-enters warm-up after a sensor outage).
func (b *Buffer[T]) Fill(v T) {
	for i := range b.data {
		b.data[i] = v
	}
	b.head = 0
	b.count = len(b.data)
}

// Snapshot copies the contents into a new slice in FIFO order.
func (b *Buffer[T]) Snapshot() []T {
	out := make([]T, b.count)
	for i := 0; i < b.count; i++ {
		out[i] = b.At(i)
	}
	return out
}

// Do calls fn for each element in FIFO order.
func (b *Buffer[T]) Do(fn func(v T)) {
	for i := 0; i < b.count; i++ {
		fn(b.At(i))
	}
}

// Reset empties the buffer without releasing storage.
func (b *Buffer[T]) Reset() {
	b.head = 0
	b.count = 0
}
