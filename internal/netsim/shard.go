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
// by a conservative virtual-time barrier. Every round, the coordinator
// reads each shard's earliest projected completion off its heap head,
// advances the clock to the minimum across shards and timers, and the
// shards' intra-pod work — component allocation, due-completion
// collection, and bounded lookahead windows (lookahead.go) — runs
// concurrently on a persistent worker pool (workers.go). It is the
// engine's only event loop: an engine starts with one shard. Both
// settings, one shard and one per pod, are bit-for-bit identical to the
// full-recompute reference; DESIGN.md §13 carries the determinism
// argument, and the differential gate asserts it for all six allocators
// including under link-flap schedules.

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

// engineShard is one event shard: the whole fabric when the engine runs
// one shard, otherwise the fabric partition (pod) with its own index.
type engineShard struct {
	completions sim.IndexedHeap
	alloc       Allocator // per-shard clone; nil while the union path is in force
	comps       []int     // component indices assigned this recompute
	cands       []dueCand // due-collection candidates this round
	stopAt      float64   // first (key, id) that failed the due predicate;
	stopID      int       // +Inf when the shard's heap was exhausted

	active int // active flows homed here (per-shard gauge source)

	// Per-shard labeled gauges, resolved at SetShards/SetTelemetry so
	// the event loop never does registry lookups (telemetry.Label
	// allocates). Zeroed when the shard retires (SetShards(1)).
	gActive *telemetry.Gauge // netsim.flows_active{engine,shard}
	gHeap   *telemetry.Gauge // netsim.completion_heap_size{engine,shard}

	// Lookahead-window scratch, owned by the shard's worker during a
	// window phase (lookahead.go): the window's component walk, the
	// links a completion batch freed, and the retirements to merge.
	walk    scopeWalk
	seeds   []topology.LinkID
	retired []retirement
	wRecs   int // window recomputes this round (telemetry, applied merged)
	wDirty  int // flows re-rated by window recomputes this round
}

// shardedState is the coordinator side of the sharded engine.
type shardedState struct {
	part    *topology.Partition
	shards  []*engineShard
	workers *shardWorkers // nil when one schedulable slot: phases run inline

	clonedFrom Allocator // allocator the clones were derived from

	merged   []dueCand // cross-shard due merge scratch
	busy     []int     // shard indices with work in the current phase
	isolated []bool    // per-shard: no flow couples its pods this round
	mergedR  []retirement

	// Per-round phase parameters. Phase bodies are method expressions
	// taking the engine as an argument, not closures: a func literal with
	// captures allocates at every evaluation (the per-step closures cost
	// ~11k allocs/op on the Fig10 bench).
	dueT    float64 // collectDue's tNext for the round in flight
	windowH float64 // runLookahead's safe horizon for the round in flight
}

// SetShards selects the engine's event-loop sharding. n < 0 runs one
// shard per fabric partition (pod) of the topology, coordinated by a
// conservative virtual-time barrier, and each flow belongs to the shard
// of its source host's pod; n = 0 and n = 1 both run one shard owning
// every pod, the engine's initial state. Any n ≥ 2 panics. Safe to call
// between steps, even mid-run: projected completions migrate to their
// owning heaps.
func (e *Engine) SetShards(n int) {
	e.mutating("SetShards")
	if n >= 2 {
		panic(fmt.Sprintf("netsim: SetShards(%d): want -1 (one shard per pod), 0 or 1 (one shard)", n))
	}
	part := e.net.partition()
	if n < 0 {
		n = part.NumParts()
	} else {
		n = 1
	}
	old := e.sh
	if n == 1 && old != nil && len(old.shards) == 1 {
		return // one shard already: no heap to migrate, no pool to stop
	}
	sh := &shardedState{
		part:     part,
		shards:   make([]*engineShard, n),
		isolated: make([]bool, n),
	}
	shardBuf := make([]engineShard, n) // one block, not n tiny allocations
	for i := range sh.shards {
		sh.shards[i] = &shardBuf[i]
	}
	sh.busy = make([]int, 0, n)
	e.sh = sh // homeOf consults e.sh
	if old != nil {
		if old.workers != nil {
			old.workers.close()
		}
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
		// finalizer releases them. The finalizer sits on a small handle
		// only the engine references, not on the engine: Go keeps an
		// object with a finalizer, and all it reaches, alive through one
		// more collection, which on the engine would hold a dropped
		// engine's network and fill state for a GC cycle. Registered once
		// per engine.
		if e.pool == nil {
			e.pool = new(poolRef)
			runtime.SetFinalizer(e.pool, func(p *poolRef) {
				if p.w != nil {
					p.w.close()
				}
			})
		}
	}
	if e.pool != nil {
		e.pool.w = sh.workers // the old pool, if any, was stopped above
	}
}

// poolRef is the finalizer-bearing handle on an engine's current worker
// pool (nil when none runs).
type poolRef struct{ w *shardWorkers }

// retireShardGauges drains the per-shard gauges of a replaced shard set
// to zero, so the per-pod shards retired by SetShards(1) do not leak
// their last readings into the telemetry snapshot forever; a later
// return to per-pod shards rebinds and republishes them.
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

// homeOf maps a flow to its owning shard: shard 0 at one shard,
// otherwise the fabric partition of its source host. Src is immutable
// for the life of a FlowID slot, so ownership never moves while a flow
// is active — reroutes and stalls keep a flow on its home heap, and the
// FlowID-recycling free list never changes a slot's owner mid-flight.
func (e *Engine) homeOf(id FlowID) int {
	if len(e.sh.shards) == 1 {
		return 0 // skips a flow-table load on every admit and retire
	}
	p := int(e.sh.part.OfNode(e.net.flows[id].Src))
	if p < 0 {
		p = 0 // defensive: sources are hosts, never spine-layer nodes
	}
	return p
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

// step performs one barrier round: reallocate if needed, read every
// shard's earliest projected completion off its heap head, advance the
// clock to the conservative minimum across shards and timers, and
// collect due completions per shard, apply them in exact (time, id)
// order and fire their callbacks. When the earliest event belongs to
// a shard whose pods no cross-pod flow touches, the round instead runs
// bounded lookahead windows (lookahead.go): every such isolated shard
// advances all its completions below the cross-shard horizon in one
// barrier round-trip.
//
// netsim.events meters the discrete events themselves — completions
// retired plus timers fired, minimum one per round — so events/s
// measures simulation throughput at both shard settings.
func (e *Engine) step(horizon float64) error {
	sh := e.sh
	if e.dirty {
		e.recompute()
		e.dirty = false
		e.tel.rateRecomputes.Inc()
		e.observeUtilization()
	}

	tFlow := math.Inf(1)
	minShard := -1
	for i, s := range sh.shards {
		if at, _, ok := s.completions.Min(); ok && at < tFlow {
			tFlow, minShard = at, i
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
			// The safe horizon: the earliest event outside the isolated
			// shards — a non-isolated shard's next completion, the next
			// timer, or the run horizon.
			h := math.Min(tEvent, horizon)
			for i, s := range sh.shards {
				if at, _, ok := s.completions.Min(); ok && !sh.isolated[i] && at < h {
					h = at
				}
			}
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
			e.fire(fn, id)
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

// collectShardDue is the per-shard due-collection phase body: pop every
// projected completion due by sh.dueT into the shard's candidate list,
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
		if !due(&e.net.flows[idInt], at, tNext) {
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
// order, independently of the sharding.
func (e *Engine) collectDue(tNext float64) []dueCand {
	sh := e.sh
	sh.busy = sh.busy[:0]
	for i, s := range sh.shards {
		if s.completions.Len() > 0 {
			sh.busy = append(sh.busy, i)
		}
	}
	sh.dueT = tNext
	sh.workers.run(e, sh.busy, (*Engine).collectShardDue)
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
// shard's clone over each component assigned to it this recompute.
func (e *Engine) allocShardComps(i int) {
	s := e.sh.shards[i]
	for _, c := range s.comps {
		allocComp(s.alloc, e.net, e.walk.comp(c))
	}
}

// recompute re-rates the flows affected by the accumulated flow-set
// changes and re-projects their completion times. With scoping in
// force, the dirty components are routed to their owning shards'
// allocator clones and allocated concurrently; otherwise, or when the
// allocator cannot be cloned, it takes the union path.
func (e *Engine) recompute() {
	sh := e.sh
	now := e.clock.Now()
	scoped := !e.full && !e.dirtyAll
	// Clones derive lazily, at the first recompute that can actually use
	// them: runs that only ever take the union path (full recomputes,
	// non-shardable disciplines) never pay for them.
	if !scoped || !sh.ensureClones(e.alloc) {
		e.recomputeUnion(now, scoped)
		return
	}
	// Pre-size each shard's heap for its active population before the
	// re-projections below re-key them one Fix at a time.
	for _, s := range sh.shards {
		s.completions.Grow(len(e.net.flows)-1, s.active)
	}
	w := &e.walk
	e.splitDirty()
	w.save(e.net)
	if len(w.ids) > 0 {
		// Assign each component to the home shard of its lowest flow. A
		// component may span pods (cross-pod flows couple them through
		// cut links); ownership by lowest member keeps the assignment
		// deterministic and every component on exactly one shard. An
		// empty scope runs nothing: shardable disciplines accept it
		// without observable side effects.
		for _, s := range sh.shards {
			s.comps = s.comps[:0]
		}
		sh.busy = sh.busy[:0]
		for c := 0; c+1 < len(w.off); c++ {
			home := e.homeOf(w.ids[w.off[c]])
			s := sh.shards[home]
			if len(s.comps) == 0 {
				sh.busy = append(sh.busy, home)
			}
			s.comps = append(s.comps, c)
		}
		sh.workers.run(e, sh.busy, (*Engine).allocShardComps)
		e.tel.scopedRecomputes.Inc()
		e.tel.dirtyFlows.Add(uint64(len(w.ids)))
	}
	e.reprojectHome(now)
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
	w := &e.walk
	if scoped {
		e.splitDirty()
		slices.Sort(w.ids)
	} else {
		w.ids = e.net.ActiveInto(w.ids[:0])
	}
	w.save(e.net)
	if !e.alloc.AllocateScoped(e.net, w.ids) {
		if scoped {
			// Allocator declined: widen to the full active set.
			w.ids = e.net.ActiveInto(w.ids[:0])
			w.save(e.net)
		}
		e.alloc.Allocate(e.net)
	} else if scoped && len(w.ids) > 0 {
		e.tel.scopedRecomputes.Inc()
		e.tel.dirtyFlows.Add(uint64(len(w.ids)))
	}
	e.reprojectHome(now)
}

// reprojectHome closes a coordinator recompute: the walk's changed flows
// re-keyed on their home heaps, and the seeds consumed.
func (e *Engine) reprojectHome(now float64) {
	e.reproject(&e.walk, now, nil)
	e.tel.heapSize.Set(float64(e.heapLen()))
	e.seedFlows = e.seedFlows[:0]
	e.seedLinks = e.seedLinks[:0]
	e.dirtyAll = false
}

// ensureClones (re)derives per-shard allocator clones when the engine's
// allocator changed since the last recompute, and reports whether
// clones are in force. A nil clone marks the allocator (or its current
// configuration) non-shardable; component allocation then stays on the
// union path while the sharded event loop keeps running.
func (sh *shardedState) ensureClones(alloc Allocator) bool {
	if sh.clonedFrom == alloc {
		return sh.shards[0].alloc != nil
	}
	sh.clonedFrom = alloc
	for _, s := range sh.shards {
		s.alloc = nil
	}
	sa, ok := alloc.(ShardableAllocator)
	if !ok || sa.ShardClone() == nil {
		return false
	}
	for _, s := range sh.shards {
		// Without a worker pool, phases run inline, one shard after
		// another on the coordinator goroutine, so every shard allocates
		// with the parent itself: a scoped clone shares all per-link
		// state with the parent anyway — sequentially they are the same
		// computation — and skipping derivation skips the per-clone run
		// scratch entirely.
		s.alloc = alloc
		if sh.workers != nil {
			s.alloc = sa.ShardClone()
		}
	}
	return true
}

// splitDirty expands the recompute seeds (dirty links and flows) into
// their link-connected components on the coordinator's walk. The
// per-shard path needs no union-wide sort: every consumer of the walk's
// ids either pairs it positionally with the saved rates or slices it per
// component, and the allocator contract only requires each component
// ascending. The union path, which hands the whole set to one
// AllocateScoped call, sorts it once.
func (e *Engine) splitDirty() {
	e.growFlowSeen()
	e.walk.expand(e.net, e.flowSeen, e.linkSeen, e.epoch.Add(1), e.seedLinks, e.seedFlows)
}

// growFlowSeen sizes the shared flow marks to the flow table. Walks
// never grow it: windows mark flows concurrently.
func (e *Engine) growFlowSeen() {
	for len(e.flowSeen) < len(e.net.flows) {
		e.flowSeen = append(e.flowSeen, 0)
	}
}
