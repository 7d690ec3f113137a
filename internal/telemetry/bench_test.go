package telemetry

import (
	"testing"
)

// TestHotPathZeroAlloc pins the zero-allocation guarantee of the
// counter/gauge/histogram hot path (the < ~50ns budget depends on it).
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("z.c")
	g := r.Gauge("z.g")
	h := r.Histogram("z.h")
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(1.5) }},
		{"Gauge.Add", func() { g.Add(0.5) }},
		{"Histogram.Observe", func() { h.Observe(0.0017) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f bytes-objects per op, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench.c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench.g")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench.h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-6)
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench.cp")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("bench.hp")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(3.5e-4)
		}
	})
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Counter(Label("bench.many", "i", string(rune('a'+i%26)))).Inc()
	}
	h := r.Histogram("bench.snap.h")
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) * 1e-5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
