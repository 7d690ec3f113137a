package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueOrdersByTime(t *testing.T) {
	var q Queue
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		q.Schedule(at, func() { got = append(got, at) })
	}
	for {
		e, ok := q.Pop()
		if !ok {
			break
		}
		e.Fn()
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Errorf("fired %d events, want 5", len(got))
	}
}

func TestQueueTieBreakPreservesScheduleOrder(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(7.0, func() { got = append(got, i) })
	}
	for {
		e, ok := q.Pop()
		if !ok {
			break
		}
		e.Fn()
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestQueuePeekAndLen(t *testing.T) {
	var q Queue
	if _, ok := q.PeekTime(); ok {
		t.Error("PeekTime on empty queue should report !ok")
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue should report !ok")
	}
	q.Schedule(9, func() {})
	q.Schedule(2, func() {})
	if at, ok := q.PeekTime(); !ok || at != 2 {
		t.Errorf("PeekTime = %g,%v; want 2,true", at, ok)
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
}

func TestQueuePopOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		n := rng.Intn(100)
		for i := 0; i < n; i++ {
			q.Schedule(rng.Float64()*100, func() {})
		}
		prev := -1.0
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			if e.At < prev {
				return false
			}
			prev = e.At
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Errorf("zero clock Now = %g, want 0", c.Now())
	}
	if err := c.AdvanceTo(4); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 4 {
		t.Errorf("Now = %g, want 4", c.Now())
	}
	if err := c.AdvanceTo(3); err == nil {
		t.Error("AdvanceTo the past should fail")
	}
	if c.Now() != 4 {
		t.Errorf("failed advances must not move the clock; Now = %g", c.Now())
	}
}
