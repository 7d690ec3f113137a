package netsim

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"saba/internal/sim"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// engineSeq hands every engine a process-unique id for its telemetry
// label set. Before this, the utilization gauges were keyed by allocator
// name alone, so two engines running the same allocator concurrently
// (sabaexp -parallel) raced on one shared gauge and overwrote each
// other's readings.
var engineSeq atomic.Uint64

// engineMetrics holds the simulator's telemetry instruments, resolved
// once at construction so the event loop never does registry lookups.
// flowSeconds records *virtual* durations (sim-time clock semantics):
// under a fixed seed the histogram is bit-for-bit reproducible.
type engineMetrics struct {
	reg              *telemetry.Registry
	events           *telemetry.Counter // netsim.events
	rateRecomputes   *telemetry.Counter // netsim.rate_recomputes
	scopedRecomputes *telemetry.Counter // netsim.scoped_recomputes
	dirtyFlows       *telemetry.Counter // netsim.dirty_flows
	flowCompletions  *telemetry.Counter // netsim.flow_completions
	linkFailures     *telemetry.Counter // netsim.link_failures
	linkRestores     *telemetry.Counter // netsim.link_restores
	flowReroutes     *telemetry.Counter // netsim.flow_reroutes
	flowStalls       *telemetry.Counter // netsim.flow_stalls
	flowResumes      *telemetry.Counter // netsim.flow_resumes
	lookaheadRounds  *telemetry.Counter // netsim.lookahead_rounds
	lookaheadEvents  *telemetry.Counter // netsim.lookahead_completions
	flowsActive      *telemetry.Gauge   // netsim.flows_active{engine=...}
	heapSize         *telemetry.Gauge   // netsim.completion_heap_size{engine=...}
	flowSeconds      *telemetry.Histogram

	// Per-allocator port-utilization gauges, cached by (allocator name)
	// within this engine's metrics (allocators can be swapped mid-run via
	// SetAllocator). The label set additionally carries the engine id so
	// two engines running the same allocator concurrently never share a
	// gauge.
	engineID string
	utilMax  map[string]*telemetry.Gauge // netsim.port_util_max{alloc=...,engine=...}
	utilMean map[string]*telemetry.Gauge // netsim.port_util_mean{alloc=...,engine=...}
}

func newEngineMetrics(reg *telemetry.Registry, engineID string) *engineMetrics {
	return &engineMetrics{
		reg:              reg,
		engineID:         engineID,
		events:           reg.Counter("netsim.events"),
		rateRecomputes:   reg.Counter("netsim.rate_recomputes"),
		scopedRecomputes: reg.Counter("netsim.scoped_recomputes"),
		dirtyFlows:       reg.Counter("netsim.dirty_flows"),
		flowCompletions:  reg.Counter("netsim.flow_completions"),
		linkFailures:     reg.Counter("netsim.link_failures"),
		linkRestores:     reg.Counter("netsim.link_restores"),
		flowReroutes:     reg.Counter("netsim.flow_reroutes"),
		flowStalls:       reg.Counter("netsim.flow_stalls"),
		flowResumes:      reg.Counter("netsim.flow_resumes"),
		lookaheadRounds:  reg.Counter("netsim.lookahead_rounds"),
		lookaheadEvents:  reg.Counter("netsim.lookahead_completions"),
		flowsActive:      reg.Gauge(telemetry.Label("netsim.flows_active", "engine", engineID)),
		heapSize:         reg.Gauge(telemetry.Label("netsim.completion_heap_size", "engine", engineID)),
		flowSeconds:      reg.Histogram("netsim.flow_seconds"),
		utilMax:          map[string]*telemetry.Gauge{},
		utilMean:         map[string]*telemetry.Gauge{},
	}
}

// utilGauges returns the utilization gauges for the named allocator,
// creating them on first use.
func (m *engineMetrics) utilGauges(alloc string) (max, mean *telemetry.Gauge) {
	max = m.utilMax[alloc]
	if max == nil {
		max = m.reg.Gauge(telemetry.Label("netsim.port_util_max", "alloc", alloc, "engine", m.engineID))
		m.utilMax[alloc] = max
	}
	mean = m.utilMean[alloc]
	if mean == nil {
		mean = m.reg.Gauge(telemetry.Label("netsim.port_util_mean", "alloc", alloc, "engine", m.engineID))
		m.utilMean[alloc] = mean
	}
	return max, mean
}

// Engine is the fluid discrete-event driver: it alternates between
// recomputing flow rates (whenever the flow set changes) and advancing
// virtual time to the next flow completion or scheduled event.
//
// Two structures make each step cheap in large networks. First, indexed
// min-heaps of projected completion times replace the per-step scan over
// all active flows: a flow's heap key is lastSet + Remaining/Rate,
// recomputed only when its rate actually changes, so finding the next
// completion is O(1). Second, rate recomputation is scoped to the dirty
// components — the flows transitively link-connected to whatever was
// added or removed — because bandwidth sharing across disjoint
// components is independent for separable disciplines. Allocators that
// cannot localize (Homa, Sincronia) decline via AllocateScoped and fall
// back to a full recompute.
//
// The event loop is sharded (shard.go): one completion heap per event
// shard, a single shard by default, one per pod via SetShards(-1). Both
// settings produce bit-for-bit the completion times of the full-recompute
// reference (SetFullRecompute), which re-rates the whole network after
// every change and uses neither scoping, allocator clones nor lookahead
// windows; the differential tests hold the engine to that contract.
type Engine struct {
	net      *Network
	alloc    Allocator
	clock    sim.Clock
	events   sim.Queue
	onDone   []func(*Engine, FlowID) // indexed by FlowID; nil = no callback
	tel      *engineMetrics
	engineID string // process-unique telemetry label, from engineSeq

	dirty    bool
	dirtyAll bool // recompute cannot be scoped (allocator swap, reconfig)
	full     bool // FullRecompute escape hatch: never scope

	// Dirty-set seeds accumulated since the last recompute: flows added
	// (their components must be rated) and links whose capacity was
	// released by removed flows (their surviving flows' components must
	// be re-rated).
	seedFlows []FlowID
	seedLinks []topology.LinkID

	// sh holds the event shards: per-partition completion heaps (every
	// active flow with a positive rate, keyed by its projected completion
	// time) and allocator clones, coordinated by a conservative
	// virtual-time barrier. Never nil; see shard.go.
	sh *shardedState

	// Recompute scratch, reused across steps: the coordinator's component
	// walk (scope.go) and the flow and link marks every walk shares.
	// epoch is atomic because lookahead windows walk concurrently and draw
	// their epochs from the same counter as the coordinator.
	walk     scopeWalk
	flowSeen []int64
	linkSeen []int64 // sized to the link count once, in NewEngine
	epoch    atomic.Int64

	// Completion-callback accounting for the lookahead gate: windows
	// reorder when callbacks run relative to other shards' simulation
	// work, which is only safe when every registered callback is pure
	// (PureCallbacks) or none is registered at all (onDoneCount == 0).
	// inPure is set while a callback declared pure runs; mutating
	// methods panic then.
	onDoneCount   int
	pureCallbacks bool
	inPure        bool
	pool          *poolRef // worker-pool finalizer handle; nil until a pool starts

	// Stalled-flow tracking: flows parked with no live path after a link
	// failure. stalled may hold stale or duplicate entries (slots recycle);
	// resumeStalled filters on the per-flow flag, and stalledCount is the
	// exact live count.
	stalled      []FlowID
	stalledCount int

	// OnAdvance, when set, observes every time advance [t0, t1) with the
	// flow rates that were in force during it — the hook used by the
	// utilization tracer (Fig. 2). It runs after flows have progressed but
	// before completion callbacks fire.
	OnAdvance func(e *Engine, t0, t1 float64)

	// OnTopologyChange, when set, fires after every applied link or switch
	// failure/restore with the new topology liveness epoch. core.RunJobs
	// wires it to the controller's reconvergence path.
	OnTopologyChange func(e *Engine, epoch uint64)
}

// Errors returned by Run.
var (
	ErrDeadlock = errors.New("netsim: zero-rate flows with no pending events (allocation deadlock)")
	ErrHorizon  = errors.New("netsim: simulation horizon exceeded")
)

// NewEngine creates an engine over the network with the given allocator.
func NewEngine(net *Network, alloc Allocator) *Engine {
	id := strconv.FormatUint(engineSeq.Add(1), 10)
	e := &Engine{
		net:      net,
		alloc:    alloc,
		engineID: id,
		tel:      newEngineMetrics(telemetry.Default, id),
		linkSeen: make([]int64, len(net.linkFlows)),
	}
	e.SetShards(1)
	return e
}

// SetTelemetry rebinds the engine's instruments to reg (tests use this to
// isolate from the process-wide default registry).
func (e *Engine) SetTelemetry(reg *telemetry.Registry) {
	e.tel = newEngineMetrics(reg, e.engineID)
	e.bindShardGauges()
}

// SetFullRecompute disables (true) or re-enables (false) scoped rate
// recomputation: with full recompute every flow-set change re-rates the
// entire network on the parent allocator, and no lookahead window opens.
// It is the reference the differential tests compare every scoped and
// sharded configuration against, bit for bit.
func (e *Engine) SetFullRecompute(full bool) {
	e.mutating("SetFullRecompute")
	e.full = full
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.clock.Now() }

// Network returns the underlying network.
func (e *Engine) Network() *Network { return e.net }

// Allocator returns the active allocator.
func (e *Engine) Allocator() Allocator { return e.alloc }

// SetAllocator swaps the bandwidth-sharing discipline; rates are
// recomputed on the next step.
func (e *Engine) SetAllocator(a Allocator) {
	e.mutating("SetAllocator")
	e.alloc = a
	e.dirty = true
	e.dirtyAll = true
}

// MarkDirty forces a full rate recomputation on the next step (used after
// out-of-band configuration changes such as new WFQ weights, which can
// shift rates on links no flow was added to or removed from).
func (e *Engine) MarkDirty() {
	e.mutating("MarkDirty")
	e.dirty = true
	e.dirtyAll = true
}

// AddFlow activates a flow; onDone (optional) fires when it completes.
func (e *Engine) AddFlow(spec FlowSpec, onDone func(*Engine, FlowID)) (FlowID, error) {
	e.mutating("AddFlow")
	id, err := e.net.AddFlow(e.Now(), spec)
	if err != nil {
		return 0, err
	}
	if onDone != nil {
		e.setDone(id, onDone)
	}
	e.seedFlows = append(e.seedFlows, id)
	e.registerIfStalled(id)
	e.noteShardFlow(id, +1)
	e.dirty = true
	e.tel.flowsActive.Set(float64(e.net.NumActive()))
	return id, nil
}

// AddFlows atomically activates a batch of flows under a single pending
// rate recomputation — a job stage's shuffle fan-out admits all its
// flows for the cost of one allocator invocation instead of one per
// flow. onDone (optional) fires once per completing flow.
func (e *Engine) AddFlows(specs []FlowSpec, onDone func(*Engine, FlowID)) ([]FlowID, error) {
	e.mutating("AddFlows")
	ids, err := e.net.AddFlows(e.Now(), specs)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if onDone != nil {
			e.setDone(id, onDone)
		}
		e.seedFlows = append(e.seedFlows, id)
		e.registerIfStalled(id)
		e.noteShardFlow(id, +1)
	}
	e.dirty = true
	e.tel.flowsActive.Set(float64(e.net.NumActive()))
	return ids, nil
}

// CancelFlow removes a flow without firing its completion callback.
func (e *Engine) CancelFlow(id FlowID) error {
	e.mutating("CancelFlow")
	f, err := e.net.Flow(id)
	if err != nil {
		return err
	}
	e.seedLinks = append(e.seedLinks, f.Path...)
	if f.stalled {
		e.stalledCount--
	}
	e.noteShardFlow(id, -1)
	if err := e.net.RemoveFlow(id); err != nil {
		return err
	}
	e.heapRemove(id)
	e.takeDone(id)
	e.dirty = true
	e.tel.flowsActive.Set(float64(e.net.NumActive()))
	return nil
}

// At schedules fn at absolute virtual time t (>= Now).
func (e *Engine) At(t float64, fn func(*Engine)) error {
	e.mutating("At")
	if t < e.Now() {
		return fmt.Errorf("%w: %g < %g", sim.ErrPastEvent, t, e.Now())
	}
	e.events.Schedule(t, func() { fn(e) })
	return nil
}

// After schedules fn dt seconds from now.
func (e *Engine) After(dt float64, fn func(*Engine)) error {
	e.mutating("After")
	if dt < 0 {
		return fmt.Errorf("netsim: negative delay %g", dt)
	}
	return e.At(e.Now()+dt, fn)
}

// Idle reports whether nothing remains to simulate.
func (e *Engine) Idle() bool {
	return e.net.NumActive() == 0 && e.events.Len() == 0
}

// Run advances the simulation until idle or until virtual time exceeds
// horizon (seconds; use math.Inf(1) for no limit).
func (e *Engine) Run(horizon float64) error {
	for !e.Idle() {
		if err := e.step(horizon); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil advances until the predicate holds, the simulation idles, or
// the horizon passes.
func (e *Engine) RunUntil(horizon float64, pred func() bool) error {
	for !e.Idle() && !pred() {
		if err := e.step(horizon); err != nil {
			return err
		}
	}
	return nil
}

// SetPureCallbacks declares that every completion callback registered
// with this engine is pure with respect to the simulation: it may read
// the engine (Now, telemetry) and record results externally, but never
// adds, cancels, reconfigures, or otherwise mutates engine or network
// state. The engine uses the promise to run bounded virtual-time
// lookahead windows: isolated shards retire several completions per
// barrier round, and the callbacks — though fired in the exact order and
// at the exact virtual times they would have without windows — fire
// after other shards have already simulated past them, which only an
// effect-free callback cannot observe. Without the promise, lookahead
// stays off whenever any callback is registered.
//
// The promise is checked in every round, windows or not: while a
// callback of an engine so declared runs, AddFlow(s), CancelFlow,
// At/After, SetAllocator, MarkDirty, SetShards, SetFullRecompute and
// Fail*/Restore* panic, naming the method.
func (e *Engine) SetPureCallbacks(pure bool) { e.pureCallbacks = pure }

// mutating panics when a mutating method is called from a completion
// callback declared pure (SetPureCallbacks).
func (e *Engine) mutating(method string) {
	if e.inPure {
		panic("netsim: Engine." + method + " called from a completion callback declared pure by SetPureCallbacks")
	}
}

// fire runs a completion callback, holding a pure one to its promise.
func (e *Engine) fire(fn func(*Engine, FlowID), id FlowID) {
	e.inPure = e.pureCallbacks
	fn(e, id)
	e.inPure = false
}

// setDone records a completion callback for id.
func (e *Engine) setDone(id FlowID, fn func(*Engine, FlowID)) {
	for int(id) >= len(e.onDone) {
		e.onDone = append(e.onDone, nil)
	}
	if e.onDone[id] == nil {
		e.onDoneCount++
	}
	e.onDone[id] = fn
}

// takeDone removes and returns id's completion callback, if any.
func (e *Engine) takeDone(id FlowID) func(*Engine, FlowID) {
	if int(id) >= len(e.onDone) {
		return nil
	}
	fn := e.onDone[id]
	if fn != nil {
		e.onDoneCount--
	}
	e.onDone[id] = nil
	return fn
}

// observeUtilization refreshes the per-allocator port-utilization gauges
// after a rate recomputation: the max and mean utilization across the
// busy links touched by the last allocation (under a full recompute that
// is every busy link; under a scoped one, the dirty components' links —
// the only ones whose utilization can have changed). The coordinator's
// walk recorded those links as it marked them.
func (e *Engine) observeUtilization() {
	var sum, max float64
	n := 0
	for _, l := range e.walk.links {
		if len(e.net.linkFlows[l]) == 0 {
			continue
		}
		u := e.net.LinkUtilization(l)
		sum += u
		if u > max {
			max = u
		}
		n++
	}
	gMax, gMean := e.tel.utilGauges(e.alloc.Name())
	gMax.Set(max)
	if n > 0 {
		gMean.Set(sum / float64(n))
	} else {
		gMean.Set(0)
	}
}

// timeSlack absorbs floating-point drift when comparing event times.
const timeSlack = 1e-9

// completionSlack is the residual size below which a flow counts as
// finished: absolute floor plus a relative component for huge transfers.
func completionSlack(f *Flow) float64 {
	return 1e-6 + f.Size*1e-12
}
