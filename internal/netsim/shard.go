package netsim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"

	"saba/internal/sim"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// This file implements the sharded event loop: the engine split by
// fabric partition into per-pod shards, each owning a completion heap
// and (when the discipline supports it) an allocator clone, coordinated
// by a conservative virtual-time barrier. Every round, shards propose
// their earliest projected completion, the coordinator advances the
// clock to the minimum across shards and timers, and the shards'
// intra-pod work — component allocation, due-completion collection,
// and bounded lookahead windows (lookahead.go) — runs concurrently on a
// persistent worker pool (workers.go). It is the engine's only event
// loop: an engine starts with one shard. Every shard count is
// bit-for-bit identical to the full-recompute reference; DESIGN.md §13
// carries the determinism argument, and the differential gate asserts it
// for all six allocators including under link-flap schedules.

// dueCand is one completion candidate popped during due collection: the
// flow and the heap key it carried when popped.
type dueCand struct {
	at float64
	id int
}

// retirement is one completion committed inside a lookahead window:
// the virtual time of the barrier round that would have retired it, the
// heap key the flow carried when popped (the pop order within a round),
// and the flow. Sorting merged retirements by (at, key, id) reproduces
// the completion sequence of a run without windows.
type retirement struct {
	at  float64
	key float64
	id  int
}

// engineShard is one per-partition event shard.
type engineShard struct {
	completions sim.IndexedHeap
	alloc       Allocator // per-shard clone; nil while the union path is in force
	comps       []int     // component indices assigned this recompute
	cands       []dueCand // due-collection candidates this round
	stopAt      float64   // first (key, id) that failed the due predicate;
	stopID      int       // +Inf when the shard's heap was exhausted
	declined    bool      // a clone declined AllocateScoped this recompute

	pods   []int32 // fabric partitions folded onto this shard
	active int     // active flows homed here (per-shard gauge source)

	// Per-shard labeled gauges, resolved at SetShards/SetTelemetry so
	// the event loop never does registry lookups (telemetry.Label
	// allocates). Zeroed when the shard retires (SetShards shrink).
	gActive *telemetry.Gauge // netsim.flows_active{engine,shard}
	gHeap   *telemetry.Gauge // netsim.completion_heap_size{engine,shard}

	// Lookahead-window scratch, owned by the shard's worker during a
	// window phase (lookahead.go). linkSeen is per-shard because window
	// traversals run concurrently; flow marks live in the engine-shared
	// flowSeen array, which is safe because an isolated shard's
	// components reach only its own flows.
	wIDs      []FlowID
	wOld      []float64
	wCompOff  []int
	wStack    []topology.LinkID
	linkSeen  []int64
	seeds     []topology.LinkID
	retired   []retirement
	wDeclined bool
	wRecs     int // window recomputes this round (telemetry, applied merged)
	wDirty    int // flows re-rated by window recomputes this round
}

// shardedState is the coordinator side of the sharded engine.
type shardedState struct {
	part    *topology.Partition
	barrier *sim.Barrier
	shards  []*engineShard
	workers *shardWorkers // nil when one schedulable slot: phases run inline

	clonedFrom Allocator // allocator the clones were derived from
	clones     bool      // clones usable: component-parallel allocation on
	// cloneCache pools derived clone sets per source allocator, so
	// swapping allocators back and forth (SetAllocator A→B→A) reuses
	// A's clones — and their internal scratch — instead of rederiving.
	cloneCache map[Allocator][]Allocator

	compOff  []int     // e.ids[compOff[c]:compOff[c+1]] = component c (ascending)
	merged   []dueCand // cross-shard due merge scratch
	busy     []int     // shard indices with work in the current phase
	isolated []bool    // per-shard: no flow couples its pods this round
	mergedR  []retirement

	// Per-round phase parameters. Phase bodies are method expressions
	// taking the engine as an argument, not closures: a func literal with
	// captures allocates at every evaluation (the per-step closures cost
	// ~11k allocs/op on the Fig10 bench), and a method value stored here
	// would make the engine reachable from itself, which keeps an engine
	// with a worker-pool finalizer from ever being collected.
	dueT    float64 // collectDue's tNext for the round in flight
	windowH float64 // runLookahead's safe horizon for the round in flight

	// lookahead gates the window optimization for this run. It starts
	// true and latches false if a clone ever declines inside a window
	// (defensively: no shardable discipline declines today) — the
	// recovery recompute is rate-correct but not provably bit-exact, so
	// windows stop rather than compound.
	lookahead bool
}

// SetShards splits the engine into n per-partition event shards
// coordinated by a conservative virtual-time barrier. n < 0 derives one
// shard per fabric partition of the topology; n = 0 and n = 1 both mean
// one shard, the engine's initial state. Safe to call between steps,
// even mid-run: projected completions migrate to their owning heaps.
// Flow ownership is the fabric partition of the flow's source host
// folded onto the shard count, so any n is valid on any topology.
func (e *Engine) SetShards(n int) {
	part := e.net.partition()
	if n < 0 {
		n = part.NumParts()
	}
	if n < 1 {
		n = 1
	}
	old := e.sh
	if n == 1 && old != nil && len(old.shards) == 1 {
		return // one shard already: no heap to migrate, no pool to stop
	}
	sh := &shardedState{
		part:      part,
		barrier:   sim.NewBarrier(n),
		shards:    make([]*engineShard, n),
		isolated:  make([]bool, n),
		lookahead: true,
	}
	shardBuf := make([]engineShard, n) // one block, not n tiny allocations
	for i := range sh.shards {
		sh.shards[i] = &shardBuf[i]
	}
	sh.busy = make([]int, 0, n)
	for p := 0; p < part.NumParts(); p++ {
		s := sh.shards[p%n]
		s.pods = append(s.pods, int32(p))
	}
	e.sh = sh // homeOf consults e.sh
	if old != nil {
		e.stopShards(old)
		for _, s := range old.shards {
			e.redistribute(&s.completions)
		}
		retireShardGauges(old)
	}
	// Per-shard active counts include stalled and zero-rate flows, which
	// live on no heap; recount from the network.
	for i := range e.net.flows {
		if e.net.flows[i].active {
			sh.shards[e.homeOf(FlowID(i))].active++
		}
	}
	e.bindShardGauges()
	if ps := poolSize(n); ps >= 2 {
		sh.workers = newShardWorkers(ps)
		// Backstop for engines dropped mid-run without SetShards(1): the
		// workers reference only the pool (never the engine between
		// phases), so an abandoned engine becomes unreachable and the
		// finalizer releases them. Registered once per engine — the
		// closure reads e.sh at finalization time, so it covers every
		// later pool too.
		if !e.poolFinalizer {
			e.poolFinalizer = true
			runtime.SetFinalizer(e, func(e *Engine) {
				if e.sh.workers != nil {
					e.sh.workers.close()
				}
			})
		}
	}
}

// stopShards releases a previous sharded state's worker pool.
func (e *Engine) stopShards(old *shardedState) {
	if old.workers != nil {
		old.workers.close()
		old.workers = nil
	}
}

// retireShardGauges drains the per-shard gauges of a replaced shard set
// to zero, so a shard retired by a shrinking SetShards does not leak its
// last reading into the telemetry snapshot forever; the shards that
// survive rebind and republish.
func retireShardGauges(old *shardedState) {
	for _, s := range old.shards {
		if s.gActive != nil {
			s.gActive.Set(0)
		}
		if s.gHeap != nil {
			s.gHeap.Set(0)
		}
	}
}

// bindShardGauges resolves the per-shard labeled gauges against the
// engine's current registry and publishes the current readings. Called
// from SetShards and SetTelemetry. A one-shard engine binds none: the
// engine-level gauges already carry the same reading, and registries
// never release an instrument, so per-engine gauges add up in processes
// that build thousands of short-lived engines.
func (e *Engine) bindShardGauges() {
	if len(e.sh.shards) < 2 {
		return
	}
	for i, s := range e.sh.shards {
		shard := strconv.Itoa(i)
		s.gActive = e.tel.reg.Gauge(telemetry.Label("netsim.flows_active",
			"engine", e.tel.engineID, "shard", shard))
		s.gHeap = e.tel.reg.Gauge(telemetry.Label("netsim.completion_heap_size",
			"engine", e.tel.engineID, "shard", shard))
		s.gActive.Set(float64(s.active))
		s.gHeap.Set(float64(s.completions.Len()))
	}
}

// noteShardFlow tracks the per-shard active-flow count as flows are
// admitted, cancelled and retired.
func (e *Engine) noteShardFlow(id FlowID, d int) {
	s := e.sh.shards[e.homeOf(id)]
	s.active += d
	if s.gActive != nil {
		s.gActive.Set(float64(s.active))
	}
}

// Shards returns the number of event shards.
func (e *Engine) Shards() int { return len(e.sh.shards) }

// redistribute moves every entry of src onto its owner's shard heap.
func (e *Engine) redistribute(src *sim.IndexedHeap) {
	for {
		at, id, ok := src.Min()
		if !ok {
			return
		}
		src.Pop()
		e.sh.shards[e.homeOf(FlowID(id))].completions.Fix(id, at)
	}
}

// homeOf maps a flow to its owning shard: the fabric partition of its
// source host, folded onto the shard count. Src is immutable for the
// life of a FlowID slot, so ownership never moves while a flow is
// active — reroutes and stalls keep a flow on its home heap, and the
// FlowID-recycling free list never changes a slot's owner mid-flight.
func (e *Engine) homeOf(id FlowID) int {
	if len(e.sh.shards) == 1 {
		return 0 // skips a flow-table load on every admit and retire
	}
	p := int(e.sh.part.OfNode(e.net.flows[id].Src))
	if p < 0 {
		p = 0 // defensive: sources are hosts, never spine-layer nodes
	}
	return p % len(e.sh.shards)
}

// heapFix (re)keys a flow's projected completion on its home shard's
// heap. All heap traffic outside the step loop and lookahead windows
// (reproject, cancel, link failures) goes through these two helpers.
func (e *Engine) heapFix(id FlowID, key float64) {
	s := e.sh.shards[e.homeOf(id)]
	s.completions.Fix(int(id), key)
	if s.gHeap != nil {
		s.gHeap.Set(float64(s.completions.Len())) // one atomic store
	}
}

// heapRemove drops a flow's projection from its home shard's heap.
func (e *Engine) heapRemove(id FlowID) {
	s := e.sh.shards[e.homeOf(id)]
	s.completions.Remove(int(id))
	if s.gHeap != nil {
		s.gHeap.Set(float64(s.completions.Len()))
	}
}

// heapLen is the total number of projected completions across heaps.
func (e *Engine) heapLen() int {
	n := 0
	for _, s := range e.sh.shards {
		n += s.completions.Len()
	}
	return n
}

// runPhase invokes fn for every listed shard — concurrently when more
// than one has work, fanned across the persistent worker pool (inline
// when the pool is absent: one shard or one schedulable core, or a
// single busy shard).
func (e *Engine) runPhase(busy []int, fn func(e *Engine, i int)) {
	e.sh.workers.run(e, busy, fn)
}

// step performs one barrier round: reallocate if needed, then shards
// propose their earliest projected completion, the clock advances to
// the conservative minimum across shards and timers, and due
// completions are collected per shard, applied in exact (time, id)
// order, and their callbacks fired. When the earliest event belongs to
// a shard whose pods no cross-pod flow touches, the round instead runs
// bounded lookahead windows (lookahead.go): every such isolated shard
// advances all its completions below the cross-shard horizon in one
// barrier round-trip.
//
// netsim.events meters the discrete events themselves — completions
// retired plus timers fired, minimum one per round — so events/s
// measures simulation throughput at every shard count.
func (e *Engine) step(horizon float64) error {
	sh := e.sh
	if e.dirty {
		e.recompute()
		e.dirty = false
		e.tel.rateRecomputes.Inc()
		e.observeUtilization()
	}

	sh.barrier.Reset()
	tFlow := math.Inf(1)
	minShard := -1
	for i, s := range sh.shards {
		if at, _, ok := s.completions.Min(); ok {
			sh.barrier.Propose(i, at)
			if at < tFlow {
				tFlow, minShard = at, i
			}
		}
	}
	tEvent := math.Inf(1)
	if at, ok := e.events.PeekTime(); ok {
		tEvent = at
	}
	tNext := math.Min(tFlow, tEvent)
	if math.IsInf(tNext, 1) {
		e.tel.events.Inc()
		if e.net.NumActive() > 0 {
			return ErrDeadlock
		}
		return nil
	}
	if tNext > horizon {
		e.tel.events.Inc()
		return fmt.Errorf("%w: next event at %gs > horizon %gs", ErrHorizon, tNext, horizon)
	}

	if tFlow < tEvent && minShard >= 0 && e.lookaheadReady() {
		e.computeIsolation()
		if sh.isolated[minShard] {
			h := sh.barrier.HorizonExcept(sh.isolated)
			h = math.Min(h, tEvent)
			h = math.Min(h, horizon)
			if tFlow < h-timeSlack {
				return e.runLookahead(h)
			}
		}
	}

	t0 := e.Now()
	if err := e.clock.AdvanceTo(tNext); err != nil {
		e.tel.events.Inc()
		return err
	}
	e.net.now = tNext
	if e.OnAdvance != nil && tNext > t0 {
		e.OnAdvance(e, t0, tNext)
	}

	due := e.collectDue(tNext)
	for _, c := range due {
		id := FlowID(c.id)
		fn := e.takeDone(id)
		f, err := e.net.Flow(id)
		if err != nil {
			return err
		}
		e.tel.flowSeconds.Observe(tNext - f.Start)
		e.seedLinks = append(e.seedLinks, f.Path...)
		e.noteShardFlow(id, -1)
		if err := e.net.RemoveFlow(id); err != nil {
			return err
		}
		e.tel.flowCompletions.Inc()
		e.dirty = true
		if fn != nil {
			fn(e, id)
		}
	}
	completions := len(due)
	if completions > 0 {
		e.tel.flowsActive.Set(float64(e.net.NumActive()))
		e.tel.heapSize.Set(float64(e.heapLen()))
		for _, i := range sh.busy {
			s := sh.shards[i]
			if s.gHeap != nil {
				s.gHeap.Set(float64(s.completions.Len()))
			}
		}
	}

	timers := 0
	for {
		at, ok := e.events.PeekTime()
		if !ok || at > e.Now()+timeSlack {
			break
		}
		ev, _ := e.events.Pop()
		ev.Fn()
		timers++
	}
	n := completions + timers
	if n == 0 {
		n = 1
	}
	e.tel.events.Add(uint64(n))
	return nil
}

// collectShardDue is the per-shard due-collection phase body: pop every projected completion at or before sh.dueT — by
// the completion-slack predicate — into the shard's candidate list,
// recording the first survivor as the shard's stop marker.
func (e *Engine) collectShardDue(i int) {
	sh := e.sh
	tNext := sh.dueT
	s := sh.shards[i]
	s.cands = s.cands[:0]
	s.stopAt = math.Inf(1)
	s.stopID = 0
	for {
		at, idInt, ok := s.completions.Min()
		if !ok {
			break
		}
		f := &e.net.flows[idInt]
		if at > tNext && f.RemainingAt(tNext) > completionSlack(f) {
			s.stopAt, s.stopID = at, idInt
			break
		}
		s.completions.Pop()
		s.cands = append(s.cands, dueCand{at: at, id: idInt})
	}
}

// collectDue returns every flow due by tNext, marked finished, in the
// exact order one merged heap would pop them. Each shard pops its heap while
// the due predicate passes and records the first (key, id) that fails;
// the globally first failure — the lexicographic minimum across shards
// — is where a single heap would have stopped, because every element
// ordered before it passes the predicate (the predicate is intrinsic to
// the flow, not to pop order). Candidates at or beyond the stop are
// re-inserted with their original keys (the indexed heap's order is a
// pure function of (key, id), so the re-insert is observably
// identical), and the survivors — merged and sorted by (key, id) — fix
// the completion sequence, and with it the callback and FlowID-recycling
// order, independently of the shard count.
func (e *Engine) collectDue(tNext float64) []dueCand {
	sh := e.sh
	sh.busy = sh.busy[:0]
	for i, s := range sh.shards {
		if s.completions.Len() > 0 {
			sh.busy = append(sh.busy, i)
		}
	}
	sh.dueT = tNext
	e.runPhase(sh.busy, (*Engine).collectShardDue)
	if len(sh.busy) == 0 {
		return nil
	}
	// With one heap popped, its own stop is the global one and its
	// candidates are already in (key, id) order: no merge needed.
	due := sh.shards[sh.busy[0]].cands
	if len(sh.busy) > 1 {
		due = e.mergeDue()
	}
	for _, c := range due {
		f := &e.net.flows[c.id]
		f.Remaining = 0
		f.lastSet = tNext
	}
	return due
}

// mergeDue applies the global stop to the busy shards' candidates,
// re-inserting the ones at or past it, and returns the survivors sorted
// by (key, id).
func (e *Engine) mergeDue() []dueCand {
	sh := e.sh
	stopAt, stopID := math.Inf(1), 0
	for _, i := range sh.busy {
		s := sh.shards[i]
		if s.stopAt < stopAt || (s.stopAt == stopAt && s.stopID < stopID) {
			stopAt, stopID = s.stopAt, s.stopID
		}
	}
	sh.merged = sh.merged[:0]
	for _, i := range sh.busy {
		s := sh.shards[i]
		for _, c := range s.cands {
			if c.at > stopAt || (c.at == stopAt && c.id >= stopID) {
				s.completions.Fix(c.id, c.at) // past the merged stop: put back
				continue
			}
			sh.merged = append(sh.merged, c)
		}
	}
	slices.SortFunc(sh.merged, func(a, b dueCand) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		default:
			return a.id - b.id
		}
	})
	return sh.merged
}

// allocShardComps is the per-shard allocation phase body: run the
// shard's clone over each component assigned to it this recompute,
// flagging a decline for the coordinator.
func (e *Engine) allocShardComps(i int) {
	sh := e.sh
	s := sh.shards[i]
	for _, c := range s.comps {
		comp := e.ids[sh.compOff[c]:sh.compOff[c+1]]
		if !s.alloc.AllocateScoped(e.net, comp) {
			s.declined = true
			return
		}
	}
}

// recompute re-rates the flows affected by the accumulated flow-set
// changes and re-projects their completion times. With scoping in
// force, the dirty components are routed to their owning shards'
// allocator clones and allocated concurrently. It falls back to the
// union path whenever scoping is off for this round, the allocator
// cannot be cloned, or a clone declines.
func (e *Engine) recompute() {
	sh := e.sh
	now := e.clock.Now()
	scoped := !e.full && !e.dirtyAll
	if scoped {
		// Clones derive lazily, at the first recompute that can actually
		// use them: runs that only ever take the union path (full
		// recomputes, non-shardable disciplines) never pay for them.
		sh.ensureClones(e.alloc)
	}
	if !scoped || !sh.clones {
		e.recomputeUnion(now, scoped)
		return
	}
	// Pre-size each shard's heap for its active population before the
	// re-projections below re-key them one Fix at a time.
	for _, s := range sh.shards {
		s.completions.Grow(len(e.net.flows)-1, s.active)
	}
	e.splitDirty()
	e.saveOldRates()
	if len(e.ids) == 0 {
		// Shardable disciplines accept an empty scope without observable
		// side effects (the union path's no-op), so nothing runs.
		e.reproject(now)
		e.clearSeeds()
		return
	}

	// Assign each component to the home shard of its lowest flow. A
	// component may span pods (cross-pod flows couple them through cut
	// links); ownership by lowest member keeps the assignment
	// deterministic and every component on exactly one shard.
	nc := len(sh.compOff) - 1
	for _, s := range sh.shards {
		s.comps = s.comps[:0]
		s.declined = false
	}
	sh.busy = sh.busy[:0]
	for c := 0; c < nc; c++ {
		home := e.homeOf(e.ids[sh.compOff[c]])
		s := sh.shards[home]
		if len(s.comps) == 0 {
			sh.busy = append(sh.busy, home)
		}
		s.comps = append(s.comps, c)
	}
	e.runPhase(sh.busy, (*Engine).allocShardComps)
	declined := false
	for _, i := range sh.busy {
		declined = declined || sh.shards[i].declined
	}
	if declined {
		// A clone declined mid-way (no shardable discipline does today,
		// but the contract allows it): undo any partial rate writes — the
		// union's saved rates cover every flow a clone may have touched —
		// then widen to the full active set exactly like the union path.
		for i, id := range e.ids {
			e.net.flows[id].Rate = e.oldRates[i]
		}
		e.ids = e.net.ActiveInto(e.ids[:0])
		e.saveOldRates()
		e.alloc.Allocate(e.net)
	} else {
		e.tel.scopedRecomputes.Inc()
		e.tel.dirtyFlows.Add(uint64(len(e.ids)))
	}
	e.reproject(now)
	e.clearSeeds()
}

// recomputeUnion is recompute's fallback: the whole dirty set in one
// allocator call. It serves full recomputes, allocator swaps and
// reconfigurations (dirtyAll), and disciplines that cannot be cloned
// (Homa, Sincronia, a channel-publishing Decentral). A scoped round
// hands the allocator the union of the dirty components in ascending
// FlowID order, as the AllocateScoped contract requires; an empty set is
// still offered, because separable disciplines accept it as a no-op (no
// link they bill changed) while decliners like Homa must re-rank the
// whole network on every change — exactly what the widened path does.
func (e *Engine) recomputeUnion(now float64, scoped bool) {
	if scoped {
		e.splitDirty()
		slices.Sort(e.ids)
	} else {
		e.ids = e.net.ActiveInto(e.ids[:0])
	}
	e.saveOldRates()
	if !e.alloc.AllocateScoped(e.net, e.ids) {
		if scoped {
			// Allocator declined: widen to the full active set.
			e.ids = e.net.ActiveInto(e.ids[:0])
			e.saveOldRates()
			scoped = false
		}
		e.alloc.Allocate(e.net)
	} else if scoped && len(e.ids) > 0 {
		e.tel.scopedRecomputes.Inc()
		e.tel.dirtyFlows.Add(uint64(len(e.ids)))
	}
	e.reproject(now)
	e.clearSeeds()
}

// ensureClones (re)derives per-shard allocator clones when the engine's
// allocator changed since the last recompute, pooling previously
// derived clone sets so an allocator swapped back in reuses its clones
// (and their internal caches and scratch) instead of rebuilding them.
// Without a worker pool the shards simply share the parent allocator. A
// nil clone marks the allocator (or its current configuration)
// non-shardable; component allocation then stays on the union path
// while the sharded event loop keeps running. Non-shardable
// outcomes are deliberately not cached: a configuration change (e.g. a
// Decentral channel detach) can make the same allocator shardable
// later.
func (sh *shardedState) ensureClones(alloc Allocator) {
	if sh.clonedFrom == alloc {
		return
	}
	sh.clonedFrom = alloc
	sh.clones = false
	if cached, ok := sh.cloneCache[alloc]; ok {
		for i, s := range sh.shards {
			s.alloc = cached[i]
		}
		sh.clones = true
		return
	}
	sa, ok := alloc.(ShardableAllocator)
	if !ok {
		for _, s := range sh.shards {
			s.alloc = nil
		}
		return
	}
	clones := make([]Allocator, len(sh.shards))
	if sh.workers == nil {
		// One schedulable slot: phases run inline, one shard after
		// another on the coordinator goroutine, so every shard can
		// allocate with the parent itself. A scoped clone shares all
		// per-link state with the parent anyway — sequentially they are
		// the same computation — and skipping derivation skips the
		// per-clone run scratch entirely. Probe shardability once so a
		// non-shardable configuration still declines to the union path.
		if sa.ShardClone() == nil {
			for _, s := range sh.shards {
				s.alloc = nil
			}
			return
		}
		for i := range clones {
			clones[i] = alloc
		}
	} else {
		for i := range sh.shards {
			c := sa.ShardClone()
			if c == nil {
				for _, s2 := range sh.shards {
					s2.alloc = nil
				}
				return
			}
			clones[i] = c
		}
	}
	for i, s := range sh.shards {
		s.alloc = clones[i]
	}
	if sh.cloneCache == nil {
		sh.cloneCache = map[Allocator][]Allocator{}
	}
	sh.cloneCache[alloc] = clones
	sh.clones = true
}

// splitDirty expands the recompute seeds (dirty links and flows)
// directly into their link-connected components in one traversal: e.ids
// holds every component's flows contiguously (each sorted ascending)
// and compOff the boundaries. Inactive seed flows are skipped and
// detached stalled flows seed their last known path, so the
// concatenation of the parts is exactly the dirty union. The per-shard
// path needs no union-wide sort: every consumer of e.ids either pairs
// it positionally with oldRates or slices it per component, and the
// allocator contract only requires each component ascending. The union
// path, which hands the whole set to one AllocateScoped call, sorts it
// once.
//
// Seed order is deterministic, so discovery order — and with it the
// component list — is too. Component order across shards is free:
// components share no links by construction, so AllocateScoped on one
// is independent of every other, which the concurrent per-shard
// allocation phase already relies on.
func (e *Engine) splitDirty() {
	sh := e.sh
	e.ids = e.ids[:0]
	sh.compOff = sh.compOff[:0]
	ep := e.epoch.Add(1)
	for len(e.linkSeen) < len(e.net.linkFlows) {
		e.linkSeen = append(e.linkSeen, 0)
	}
	for len(e.flowSeen) < len(e.net.flows) {
		e.flowSeen = append(e.flowSeen, 0)
	}
	for _, l := range e.seedLinks {
		if e.linkSeen[l] == ep {
			continue
		}
		e.linkSeen[l] = ep
		e.stack = append(e.stack[:0], l)
		e.growComponent(ep, len(e.ids))
	}
	for _, id := range e.seedFlows {
		f := &e.net.flows[id]
		if !f.active || e.flowSeen[id] == ep {
			continue // e.g. admitted then cancelled before this recompute
		}
		start := len(e.ids)
		e.flowSeen[id] = ep
		e.ids = append(e.ids, id)
		e.stack = e.stack[:0]
		for _, l := range f.Path {
			if e.linkSeen[l] != ep {
				e.linkSeen[l] = ep
				e.stack = append(e.stack, l)
			}
		}
		e.growComponent(ep, start)
	}
	sh.compOff = append(sh.compOff, len(e.ids))
}

// growComponent drains the link stack into e.ids and closes out the
// component that started at start (dropped when the seed reached no
// flows). A method rather than a closure inside splitDirty: the closure
// captured locals and escaped, costing one heap allocation per scoped
// recompute on the hot path.
func (e *Engine) growComponent(ep int64, start int) {
	sh := e.sh
	for len(e.stack) > 0 {
		l := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		for _, fid := range e.net.linkFlows[l] {
			if e.flowSeen[fid] == ep {
				continue
			}
			e.flowSeen[fid] = ep
			e.ids = append(e.ids, fid)
			for _, fl := range e.net.flows[fid].Path {
				if e.linkSeen[fl] != ep {
					e.linkSeen[fl] = ep
					e.stack = append(e.stack, fl)
				}
			}
		}
	}
	if len(e.ids) > start {
		slices.Sort(e.ids[start:])
		sh.compOff = append(sh.compOff, start)
	}
}
