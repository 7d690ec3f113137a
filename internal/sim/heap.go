// Package sim provides the discrete-event scaffolding under the fluid
// network simulator: a monotonic virtual clock, a priority heap of timed
// callbacks, and the indexed heap each engine shard keys its projected
// flow completions on. The network engine interleaves flow-completion
// times (computed analytically from fluid rates) with these scheduled
// events (compute-phase completions, controller reconfigurations, job
// arrivals).
package sim

import (
	"container/heap"
	"errors"
	"fmt"
)

// Event is a callback scheduled at a virtual time.
type Event struct {
	At  float64 // virtual seconds
	Fn  func()
	seq int64 // tie-breaker preserving scheduling order
}

// Queue is a time-ordered event queue. The zero value is ready to use.
type Queue struct {
	h   eventHeap
	seq int64
}

// ErrPastEvent is returned when scheduling before the current time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// Schedule enqueues fn to run at virtual time at. Scheduling before now
// is the caller's bug; the queue cannot know "now", so Engine wraps this
// with its clock check.
func (q *Queue) Schedule(at float64, fn func()) {
	heap.Push(&q.h, &Event{At: at, Fn: fn, seq: q.seq})
	q.seq++
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// PeekTime returns the time of the earliest pending event. ok is false
// when the queue is empty.
func (q *Queue) PeekTime() (at float64, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].At, true
}

// Pop removes and returns the earliest event. ok is false when empty.
func (q *Queue) Pop() (*Event, bool) {
	if len(q.h) == 0 {
		return nil, false
	}
	return heap.Pop(&q.h).(*Event), true
}

// eventHeap implements heap.Interface ordered by (At, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*Event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Clock is a monotonic virtual clock.
type Clock struct {
	now float64
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// AdvanceTo moves the clock to the absolute time t (>= now).
func (c *Clock) AdvanceTo(t float64) error {
	if t < c.now {
		return fmt.Errorf("%w: %g < now %g", ErrPastEvent, t, c.now)
	}
	c.now = t
	return nil
}
