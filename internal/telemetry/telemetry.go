// Package telemetry is Saba's dependency-free observability substrate:
// a Registry of named counters, gauges and log-bucketed histograms with
// a lock-free hot path, diffable JSON snapshots, and an HTTP debug
// endpoint that serves Prometheus text format alongside expvar and pprof.
//
// Design rules:
//
//   - The hot path (Counter.Inc, Counter.Add, Gauge.Set, Gauge.Add,
//     Histogram.Observe) is a handful of atomic operations: no locks, no
//     allocation, no map lookups. Callers resolve instruments by name
//     once (registration takes a lock) and hold the pointer.
//   - Instruments are write-mostly; Snapshot and the Prometheus writer
//     read the same atomics, so scraping never perturbs the measured
//     system beyond cache traffic.
//   - Histograms take durations from their callers: wall-clock ones
//     (RPC latency) and virtual-time ones (flow durations in simulated
//     seconds) share one instrument type, so simulated telemetry stays
//     deterministic under fixed seeds.
//
// Naming convention (documented in DESIGN.md §7): dotted lowercase
// "<layer>.<subsystem>.<metric>", e.g. "rpc.client.call_seconds".
// Optional labels are folded into the name with Label, rendering as
// `name{k="v"}` in Prometheus output.
package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge (CAS loop; still lock- and allocation-free).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds named instruments. The zero value is not usable; call
// NewRegistry. Lookup methods get-or-create: the first caller registers
// the instrument, later callers (any goroutine) receive the same
// pointer. Counters, gauges and histograms live in separate namespaces.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry. Subsystems that are not handed
// an explicit registry report here; the sabactl debug endpoint and the
// -metrics flags of sabaexp/sabasim expose it.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// ForgetGauges unregisters the named gauges: later snapshots omit them,
// and a later Gauge call under the same name creates a fresh one. Owners
// of per-instance labeled gauges (each simulation engine) call it when
// the instance goes away, so short-lived instances do not pile up in a
// long-lived registry. Unknown names are ignored.
func (r *Registry) ForgetGauges(names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		delete(r.gauges, n)
	}
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Label folds label pairs into an instrument name, producing the
// canonical `name{k="v",...}` form the Prometheus writer understands.
// Pairs are sorted by key so the same label set always yields the same
// instrument. Use it at registration time, not on the hot path.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		kv = append(kv, "")
	}
	// Insertion-sort pair offsets on a stack array and append-build the
	// result: registration-heavy callers (the sharded engine binds two
	// labeled gauges per shard per engine) would otherwise pay a
	// sort.Slice closure, a pair slice, and per-pair Fprintf boxing.
	n := len(kv) / 2
	var offBuf [8]int
	off := offBuf[:0]
	if n > len(offBuf) {
		off = make([]int, 0, n)
	}
	for i := 0; i < n; i++ {
		off = append(off, 2*i)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && kv[off[j]] < kv[off[j-1]]; j-- {
			off[j], off[j-1] = off[j-1], off[j]
		}
	}
	size := len(name) + 2
	for _, s := range kv {
		size += len(s) + 3
	}
	buf := make([]byte, 0, size)
	buf = append(buf, name...)
	buf = append(buf, '{')
	for i, p := range off {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, kv[p]...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, kv[p+1])
	}
	buf = append(buf, '}')
	return string(buf)
}

// splitLabels separates a canonical labeled name back into its base name
// and the raw label block ("" when unlabeled).
func splitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}
