package telemetry

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("Counter lookup did not return the registered instrument")
	}
	g := r.Gauge("a.g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	samples := []float64{0.001, 0.002, 0.004, 1, 100, 0}
	sum := 0.0
	for _, v := range samples {
		h.Observe(v)
		sum += v
	}
	if h.Count() != uint64(len(samples)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(samples))
	}
	if math.Abs(h.Sum()-sum) > 1e-12 {
		t.Fatalf("sum = %g, want %g", h.Sum(), sum)
	}
	if h.Min() != 0 || h.Max() != 100 {
		t.Fatalf("min/max = %g/%g, want 0/100", h.Min(), h.Max())
	}
	// The p50 upper estimate must bracket the true median (0.002..0.004).
	if p := h.Quantile(0.5); p < 0.002 || p > 0.008 {
		t.Fatalf("p50 estimate %g outside [0.002, 0.008]", p)
	}
}

func TestHistogramBucketMonotone(t *testing.T) {
	prev := math.Inf(-1)
	for i := 0; i < histBuckets; i++ {
		b := BucketBound(i)
		if i < histBuckets-1 && b <= prev {
			t.Fatalf("bucket bound %d = %g not increasing past %g", i, b, prev)
		}
		prev = b
	}
	if !math.IsInf(BucketBound(histBuckets-1), 1) {
		t.Fatal("overflow bucket bound must be +Inf")
	}
	// Every value must land in a bucket whose bound exceeds it.
	for _, v := range []float64{0, 1e-12, 1e-9, 0.5, 1, 3, 1e6, 1e300} {
		i := bucketOf(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketOf(%g) = %d out of range", v, i)
		}
		if v < BucketBound(i-1) || (i < histBuckets-1 && v >= BucketBound(i)) {
			t.Fatalf("bucketOf(%g) = %d violates [%g, %g)", v, i, BucketBound(i-1), BucketBound(i))
		}
	}
}

func TestLabelCanonical(t *testing.T) {
	a := Label("m", "b", "2", "a", "1")
	b := Label("m", "a", "1", "b", "2")
	if a != b {
		t.Fatalf("label order not canonical: %q vs %q", a, b)
	}
	if want := `m{a="1",b="2"}`; a != want {
		t.Fatalf("Label = %q, want %q", a, want)
	}
	base, labels := splitLabels(a)
	if base != "m" || labels != `a="1",b="2"` {
		t.Fatalf("splitLabels = %q, %q", base, labels)
	}
}

func TestSnapshotAndDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Gauge("g").Set(3)
	r.Histogram("h").Observe(1)
	prev := r.Snapshot()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(2)
	r.Histogram("h").Observe(4)
	cur := r.Snapshot()
	d := cur.Delta(prev)
	if d.Counters["c"] != 2 {
		t.Fatalf("delta counter = %d, want 2", d.Counters["c"])
	}
	if d.Gauges["g"] != 7 {
		t.Fatalf("delta gauge = %g, want 7 (current level)", d.Gauges["g"])
	}
	if dh := d.Histograms["h"]; dh.Count != 2 || dh.Sum != 6 {
		t.Fatalf("delta hist count=%d sum=%g, want 2/6", dh.Count, dh.Sum)
	}
	out, err := cur.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("snapshot JSON round trip: %v", err)
	}
	if back.Counters["c"] != 7 {
		t.Fatalf("round-tripped counter = %d, want 7", back.Counters["c"])
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("rpc.client.calls").Add(3)
	r.Gauge(Label("netsim.port_util_max", "alloc", "saba-wfq")).Set(0.75)
	h := r.Histogram("controller.solve_seconds")
	h.Observe(0.001)
	h.Observe(0.002)
	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE rpc_client_calls counter",
		"rpc_client_calls 3",
		`netsim_port_util_max{alloc="saba-wfq"} 0.75`,
		"# TYPE controller_solve_seconds histogram",
		"controller_solve_seconds_count 2",
		`controller_solve_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q in:\n%s", want, out)
		}
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("x.y").Inc()
	d, err := ListenAndServe("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, path := range []string{"/metrics", "/snapshot", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + d.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestRegistryConcurrentStress hammers shared instruments from parallel
// writers while snapshots and Prometheus scrapes run concurrently — the
// -race exercise for the lock-free hot path.
func TestRegistryConcurrentStress(t *testing.T) {
	r := NewRegistry()
	const (
		writers = 8
		ops     = 5000
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		prev := r.Snapshot()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := r.Snapshot()
			_ = cur.Delta(prev)
			prev = cur
			var sb strings.Builder
			_ = WritePrometheus(&sb, r)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("stress.counter")
			g := r.Gauge("stress.gauge")
			h := r.Histogram("stress.hist")
			for i := 0; i < ops; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) * 0.001)
				// Also exercise the registration path concurrently.
				if i%1000 == 0 {
					r.Counter("stress.counter").Inc()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	wantCount := uint64(writers * (ops + ops/1000))
	if got := r.Counter("stress.counter").Value(); got != wantCount {
		t.Fatalf("counter lost updates: got %d, want %d", got, wantCount)
	}
	if got := r.Gauge("stress.gauge").Value(); got != float64(writers*ops) {
		t.Fatalf("gauge lost updates: got %g, want %d", got, writers*ops)
	}
	if got := r.Histogram("stress.hist").Count(); got != uint64(writers*ops) {
		t.Fatalf("histogram lost updates: got %d, want %d", got, writers*ops)
	}
}
