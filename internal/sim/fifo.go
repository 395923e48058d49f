package sim

// FIFO is a growable ring buffer: the device models' work queue. Items are
// pushed at the back (or, for a crash requeue, at the front) and popped from
// the front; the head wraps around the backing array, so its size follows
// the queue's depth, not the number of pushes over a run. The array doubles
// only when full, which keeps its capacity within twice the peak depth.
//
// Popped slots are zeroed at once, and Reset zeroes the live ones, so a
// FIFO of values carrying pointers (a Done's Callback, an Arg's payloads)
// never keeps a finished item reachable. Reset keeps the capacity — the
// arena contract for state reused across runs. The zero FIFO is empty and
// ready to use.
type FIFO[T any] struct {
	buf  []T // ring storage; len(buf) is zero or a power of two
	head int // index of the front item
	n    int // queued items
}

// fifoMinCap is the first allocation's size.
const fifoMinCap = 8

// Len reports the number of queued items.
func (f *FIFO[T]) Len() int { return f.n }

// Cap reports the size of the backing array.
func (f *FIFO[T]) Cap() int { return len(f.buf) }

// PushBack appends v at the back of the queue.
func (f *FIFO[T]) PushBack(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// PushFront inserts v at the front of the queue, ahead of every queued item.
func (f *FIFO[T]) PushFront(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.head = (f.head - 1) & (len(f.buf) - 1)
	f.buf[f.head] = v
	f.n++
}

// Front returns the front item without removing it. It panics on an empty
// queue.
func (f *FIFO[T]) Front() T {
	if f.n == 0 {
		panic("sim: Front of empty FIFO")
	}
	return f.buf[f.head]
}

// PopFront removes and returns the front item, zeroing its slot. It panics
// on an empty queue. (The named result and the *new(T) store keep the
// copies of a large T down to those of a hand-written slice pop.)
func (f *FIFO[T]) PopFront() (v T) {
	if f.n == 0 {
		panic("sim: PopFront of empty FIFO")
	}
	v = f.buf[f.head]
	f.buf[f.head] = *new(T)
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// Reset empties the queue, keeping the backing array.
// Only live slots need zeroing: popped ones already are.
func (f *FIFO[T]) Reset() {
	var zero T
	for ; f.n > 0; f.n-- {
		f.buf[f.head] = zero
		f.head = (f.head + 1) & (len(f.buf) - 1)
	}
	f.head = 0
}

// grow doubles the backing array, unwrapping the queue to start at index 0.
func (f *FIFO[T]) grow() {
	size := 2 * len(f.buf)
	if size == 0 {
		size = fifoMinCap
	}
	buf := make([]T, size)
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.buf = buf
	f.head = 0
}
