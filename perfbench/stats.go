package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"saba/internal/topology"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileSorted returns the q-quantile of ascending xs by the
// nearest-rank rule.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// tailLadder is the set of percentiles a tail latency is chosen from.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// latencySummary is a latency distribution reduced to the figures the
// benchmark reports. Latencies are summarized per measurement window
// (the flows of one play of an admission wave, or half a second of RPCs)
// and the windows' figures are combined robustly (see summarize and
// summarizeReplayed), so one disturbed window cannot move a figure.
type latencySummary struct {
	Samples int `json:"samples"`
	Windows int `json:"windows"`
	// TailPct is the highest ladder percentile with at least ten samples
	// beyond it in the smallest window.
	TailPct  float64 `json:"tail_percentile"`
	P50      float64 `json:"p50_ms"`
	Tail     float64 `json:"tail_ms"`
	Failures int     `json:"failures"`
}

// summarize reduces per-window latencies in seconds. A failed operation
// is recorded as +Inf, so it counts as missing any tail. The tail
// percentile is chosen for the median window size, so one short window
// (a stall, the end of a run) cannot lower it for all; with fewer than
// 20 samples there, no ladder percentile qualifies and the tail is each
// window's maximum (TailPct 100).
func summarize(windows [][]float64) latencySummary {
	out := latencySummary{}
	var sizes []float64
	for _, w := range windows {
		if len(w) > 0 {
			sizes = append(sizes, float64(len(w)))
		}
	}
	typical := median(sizes)
	tailQ := 1.0
	for _, q := range tailLadder {
		if typical*(1-q) >= 10-1e-9 { // 1-q is inexact: 100 samples leave 10 beyond p90
			tailQ = q
		}
	}
	var p50s, tails []float64
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		s := append([]float64(nil), w...)
		sort.Float64s(s)
		for _, v := range s {
			if math.IsInf(v, 1) {
				out.Failures++
			}
		}
		out.Samples += len(s)
		out.Windows++
		p50s = append(p50s, quantileSorted(s, 0.5)*1e3)
		tails = append(tails, quantileSorted(s, tailQ)*1e3)
	}
	out.TailPct = tailQ * 100
	out.P50 = median(p50s)
	out.Tail = median(tails)
	return out
}

// summarizeReplayed reduces the windows of replayed work: groups[g]
// holds one window per play of the same distinct work (one admission
// wave of one episode). Each group is summarized as above, which takes
// the median over its plays, and the figures are the means over the
// groups: the median resists a disturbed play, the mean averages the
// distinct draws a seed makes, as ops_per_s does.
func summarizeReplayed(groups [][][]float64) latencySummary {
	out := latencySummary{}
	var p50s, tails []float64
	for _, g := range groups {
		s := summarize(g)
		if s.Windows == 0 {
			continue
		}
		if out.Windows == 0 || s.TailPct < out.TailPct {
			out.TailPct = s.TailPct
		}
		out.Samples += s.Samples
		out.Windows += s.Windows
		out.Failures += s.Failures
		p50s = append(p50s, s.P50)
		tails = append(tails, s.Tail)
	}
	out.P50 = mean(p50s)
	out.Tail = mean(tails)
	return out
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// setupTimer times repeated identical set-ups. The first call is an
// untimed warm-up; the reported figure of every phase is the median over
// the timed repetitions, which is what keeps a set-up of a few tens of
// milliseconds steady on a shared machine.
type setupTimer struct {
	phases  map[string][]float64
	totals  []float64
	cur     map[string]float64
	start   time.Time
	spans   *spanLog
	setupID int64
}

func (t *setupTimer) begin() {
	t.cur = map[string]float64{}
	t.setupID = t.spans.id()
	t.start = time.Now()
}

// phase runs fn and charges its wall time to name in the current
// repetition.
func (t *setupTimer) phase(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	t.cur[name] += t1.Sub(t0).Seconds()
	t.spans.add(t.spans.id(), t.setupID, 0, strings.TrimSuffix(name, "_s"), t0, t1)
	return err
}

// finish closes a repetition; only timed ones count toward the figures.
func (t *setupTimer) finish(timed bool) {
	end := time.Now()
	t.spans.add(t.setupID, 0, 0, "setup", t.start, end)
	if !timed {
		return
	}
	t.totals = append(t.totals, end.Sub(t.start).Seconds())
	for name, v := range t.cur {
		t.phases[name] = append(t.phases[name], v)
	}
}

// phaseMedian returns the median time of a phase, 0 if it never ran.
func (t *setupTimer) phaseMedian(name string) float64 { return median(t.phases[name]) }

// repeatSetup runs build reps+1 times, timing all but the first, and
// returns the last environment built. release is called on every
// environment but the last, with the heap collected afterwards, so a
// discarded fabric neither counts toward peak memory nor leaves the
// next build a garbage collection to pay for. The collected heap stays
// mapped: the warm-up pays the page faults, the timed builds reuse it.
func repeatSetup[E any](reps int, spans *spanLog, build func(t *setupTimer) (E, error), release func(E)) (E, *setupTimer, error) {
	t := &setupTimer{phases: map[string][]float64{}, spans: spans}
	var env E
	for i := 0; i <= reps; i++ {
		if i > 0 {
			release(env)
			var zero E
			env = zero
			runtime.GC()
		}
		t.begin()
		var err error
		env, err = build(t)
		if err != nil {
			return env, nil, err
		}
		t.finish(i > 0)
	}
	return env, t, nil
}

// buildFabric runs the two topology phases every workload's set-up
// starts with: the fabric with its forwarding tables, then its pod
// partition.
func buildFabric(cfg topology.SpineLeafConfig, t *setupTimer) (*topology.Topology, *topology.Partition, error) {
	var top *topology.Topology
	if err := t.phase("topology.build_s", func() (err error) {
		top, err = topology.NewSpineLeaf(cfg)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var part *topology.Partition
	t.phase("topology.partition_s", func() error { part = top.Partition(); return nil })
	return top, part, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// memDelta records runtime.MemStats deltas over the timed phase.
type memDelta struct{ before runtime.MemStats }

func startMemDelta() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

func (d *memDelta) report(m metrics) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.set("runtime.gc_cycles", float64(after.NumGC-d.before.NumGC), "count")
	m.set("runtime.gc_pause_s", float64(after.PauseTotalNs-d.before.PauseTotalNs)/1e9, "s")
	m.set("runtime.alloc_mb", float64(after.TotalAlloc-d.before.TotalAlloc)/(1<<20), "MB")
}

// span is one timed interval of the traced run. Op ties the spans of one
// workload operation (an episode, an RPC) together; Parent is the span
// that caused this one (0 for a root).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, which is how untraced code paths stay free of it.
type spanLog struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// id reserves a span identifier, so children can name their parent
// before the parent's interval is closed.
func (l *spanLog) id() int64 {
	if l == nil {
		return 0
	}
	return l.next.Add(1)
}

// add records a closed interval under a reserved id.
func (l *spanLog) add(id, parent, op int64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// write dumps the manifest and every span as JSON lines.
func (l *spanLog) write(path string, manifest map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"manifest": manifest}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	l.mu.Lock()
	for i := range l.spans {
		if err = enc.Encode(&l.spans[i]); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// playing reports whether play k of a run over items distinct items
// (episodes, co-runs) should start. A run plays whole cycles of cycle
// plays, each item equally often and every item at least twice, so every
// run replays each item and checks the replay. It stops at the cycle
// boundary nearest the deadline, judged by the mean cycle so far, so a
// run measures for about its length whether a cycle is short or long.
// Which items a run measures therefore does not depend on how fast the
// program is; only how often each is replayed does.
func playing(k, items, cycle int, start, deadline time.Time) bool {
	if k < 2*items || k%cycle != 0 {
		return true
	}
	perCycle := time.Since(start) / time.Duration(k/cycle)
	return time.Now().Add(perCycle / 2).Before(deadline)
}

// playLog records the plays of a workload's distinct items (episodes,
// co-runs), untraced and traced apart, each timed on the process's CPU
// clock (see cpuClock).
type playLog struct {
	ops   [2][]float64   // per item: operations summed over its plays
	times [2][][]float64 // per item: CPU seconds of each play
}

func newPlayLog(items int) *playLog {
	l := &playLog{}
	for c := range l.ops {
		l.ops[c] = make([]float64, items)
		l.times[c] = make([][]float64, items)
	}
	return l
}

func (l *playLog) add(item int, traced bool, ops, secs float64) {
	c := 0
	if traced {
		c = 1
	}
	l.ops[c][item] += ops
	l.times[c][item] = append(l.times[c][item], secs)
}

// medianTimes returns each item's median play in CPU seconds.
func (l *playLog) medianTimes(traced bool) []float64 {
	c := 0
	if traced {
		c = 1
	}
	out := make([]float64, len(l.times[c]))
	for i, ts := range l.times[c] {
		out[i] = median(ts)
	}
	return out
}

// rate returns operations per CPU second, counting every item played
// once, at its median play: a play slowed by a burst of load elsewhere on
// the machine does not move it.
func (l *playLog) rate(traced bool) float64 {
	c := 0
	if traced {
		c = 1
	}
	var ops, secs float64
	for i, ts := range l.times[c] {
		if len(ts) > 0 {
			ops += l.ops[c][i] / float64(len(ts))
			secs += median(ts)
		}
	}
	if secs == 0 {
		return 0
	}
	return ops / secs
}

// overheadPct is the tracing overhead: how much slower traced work ran
// than untraced work interleaved with it, in percent of the untraced
// rate. It is 0 when either side has no samples.
func overheadPct(untracedRate, tracedRate float64) float64 {
	if untracedRate <= 0 || tracedRate <= 0 {
		return 0
	}
	return (1 - tracedRate/untracedRate) * 100
}

// stealNow returns the machine's stolen CPU time so far, summed over
// its CPUs, in seconds (0 where /proc/stat does not say).
func stealNow() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuClock returns the CPU time the process has used so far, summed over
// its threads. The kernel charges a thread only for time it ran: time
// the hypervisor stole and time spent waiting for a CPU do not count, so
// on a shared machine this clock is much steadier than the wall clock.
func cpuClock() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}
