// Package trace records CPU and network utilization timelines of a
// simulated run — the instrumentation behind the paper's Fig. 2, which
// shows why bandwidth sensitivity arises (serial communication phases
// stretch as bandwidth shrinks while overlapped ones hide).
package trace

import (
	"errors"
	"fmt"

	"saba/internal/netsim"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// Point is one sample of the normalized utilization timeline.
type Point struct {
	Time float64 // bucket start, seconds
	CPU  float64 // percent of aggregate CPU capacity in use
	Net  float64 // percent of aggregate NIC egress capacity in use
}

// Recorder accumulates utilization into fixed-width time buckets for a
// set of traced nodes.
//
// By default the whole timeline is retained; SetMaxSamples switches the
// recorder into ring-buffer mode with bounded memory, keeping only the
// most recent buckets.
type Recorder struct {
	interval float64
	nodes    map[topology.NodeID]bool
	capacity float64 // per-node egress capacity, bits/sec

	// Both series share the same base offset: bucket i of either slice
	// covers [ (base+i)·interval, (base+i+1)·interval ).
	base    int
	cpuBusy []float64 // busy node-seconds per bucket
	netBits []float64 // egress bits per bucket

	maxSamples int // > 0: ring-buffer mode, retain at most this many buckets
	dropped    int // buckets discarded by the sliding window

	droppedCtr *telemetry.Counter // trace.buckets_dropped
}

// NewRecorder traces the given nodes with buckets of `interval` seconds.
// capacity is the per-node egress capacity used for normalization.
func NewRecorder(interval float64, nodes []topology.NodeID, capacity float64) (*Recorder, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("trace: interval %g must be positive", interval)
	}
	if len(nodes) == 0 {
		return nil, errors.New("trace: no nodes to trace")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("trace: capacity %g must be positive", capacity)
	}
	set := make(map[topology.NodeID]bool, len(nodes))
	for _, n := range nodes {
		set[n] = true
	}
	return &Recorder{
		interval:   interval,
		nodes:      set,
		capacity:   capacity,
		droppedCtr: telemetry.Default.Counter("trace.buckets_dropped"),
	}, nil
}

// SetMaxSamples bounds the retained timeline to the most recent n
// buckets (a sliding window of n×interval seconds): once the simulation
// advances past the window, the oldest buckets are discarded and memory
// stays O(n). n <= 0 restores the default unbounded mode.
func (r *Recorder) SetMaxSamples(n int) { r.maxSamples = n }

// Dropped returns how many buckets the sliding window has discarded.
func (r *Recorder) Dropped() int { return r.dropped }

// Attach hooks the recorder into the engine's advance callback, chaining
// any previously installed hook.
func (r *Recorder) Attach(e *netsim.Engine) {
	prev := e.OnAdvance
	e.OnAdvance = func(e *netsim.Engine, t0, t1 float64) {
		if prev != nil {
			prev(e, t0, t1)
		}
		r.observe(e, t0, t1)
	}
}

// observe integrates the egress rates of traced nodes over [t0, t1).
func (r *Recorder) observe(e *netsim.Engine, t0, t1 float64) {
	if t1 <= t0 {
		return
	}
	total := 0.0
	e.Network().ForEachActive(func(f *netsim.Flow) {
		if r.nodes[f.Src] {
			total += f.Rate
		}
	})
	if total > 0 {
		r.spread(&r.netBits, t0, t1, total)
	}
}

// MarkCPU records that `nodes` traced nodes were computing during
// [from, to). Jobs report their compute windows through this.
func (r *Recorder) MarkCPU(from, to float64, nodes int) {
	if to <= from || nodes <= 0 {
		return
	}
	r.spread(&r.cpuBusy, from, to, float64(nodes))
}

// spread adds value×overlap to every bucket intersecting [from, to).
// value is a rate (per second): bits/sec for the network series,
// busy-node count for the CPU series.
func (r *Recorder) spread(buckets *[]float64, from, to, value float64) {
	first := int(from / r.interval)
	last := int(to / r.interval)
	if float64(last)*r.interval >= to {
		last-- // `to` falls exactly on a bucket boundary: exclusive end
	}
	if last < first {
		last = first
	}
	if r.maxSamples > 0 && last-r.base >= r.maxSamples {
		r.advanceBase(last + 1 - r.maxSamples)
	}
	if last < r.base {
		return // entirely before the retained window
	}
	if first < r.base {
		first = r.base
	}
	if needed := last - r.base + 1; needed > len(*buckets) {
		grown := make([]float64, needed)
		copy(grown, *buckets)
		*buckets = grown
	}
	for b := first; b <= last; b++ {
		bStart := float64(b) * r.interval
		bEnd := bStart + r.interval
		lo := from
		if bStart > lo {
			lo = bStart
		}
		hi := to
		if bEnd < hi {
			hi = bEnd
		}
		if hi > lo {
			(*buckets)[b-r.base] += value * (hi - lo)
		}
	}
}

// advanceBase slides the retained window forward so its first bucket is
// newBase, trimming both series in place (they share the base offset).
func (r *Recorder) advanceBase(newBase int) {
	d := newBase - r.base
	if d <= 0 {
		return
	}
	trim := func(s []float64) []float64 {
		if d >= len(s) {
			return s[:0]
		}
		copy(s, s[d:])
		return s[:len(s)-d]
	}
	r.cpuBusy = trim(r.cpuBusy)
	r.netBits = trim(r.netBits)
	r.base = newBase
	r.dropped += d
	r.droppedCtr.Add(uint64(d))
}

// Series returns the normalized timeline: CPU% and Net% per bucket. In
// ring-buffer mode it covers only the retained window; each Point's Time
// is still the absolute bucket start.
func (r *Recorder) Series() []Point {
	n := len(r.cpuBusy)
	if len(r.netBits) > n {
		n = len(r.netBits)
	}
	pts := make([]Point, n)
	nodeCount := float64(len(r.nodes))
	for b := 0; b < n; b++ {
		pts[b].Time = float64(r.base+b) * r.interval
		if b < len(r.cpuBusy) {
			pts[b].CPU = 100 * r.cpuBusy[b] / (nodeCount * r.interval)
		}
		if b < len(r.netBits) {
			pts[b].Net = 100 * r.netBits[b] / (nodeCount * r.capacity * r.interval)
		}
		if pts[b].CPU > 100 {
			pts[b].CPU = 100
		}
		if pts[b].Net > 100 {
			pts[b].Net = 100
		}
	}
	return pts
}
