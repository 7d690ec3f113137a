package netsim

import (
	"slices"
)

// Bounded virtual-time lookahead for the sharded event loop.
//
// The conservative barrier admits exactly one event time per round: every
// shard proposes its next completion, the minimum wins, and the round
// costs a full fan-out/join even when the winning shard's next dozen
// completions are all pod-local. Lookahead removes that cost for the
// common datacenter workload shape — most traffic stays inside a pod —
// by letting isolated shards advance many completions per round.
//
// A shard is *isolated* this round when no attached flow couples a pod it
// owns (its own pod, or every pod at one shard) to the rest of the
// fabric (Network.podCoupled: a flow couples a pod iff its path crosses
// a partition cut and touches the pod). Every flow sharing a link with
// an isolated pod's flow is itself pod-local and homed on the same
// shard, so the shard's completions, the recomputes they trigger, and
// the re-projections those produce are all confined to the shard until
// either (a) a non-isolated shard's event or (b) a scheduled timer runs. The earliest such external event is the safe
// horizon H = min(HorizonExcept(isolated), next timer, run horizon):
// below H (strictly, by timeSlack) an isolated shard may emulate barrier
// rounds locally — pop the due batch, detach the retired flows, recompute
// the seeded components at the batch time, re-project — without any other
// shard observing the difference.
//
// A window recompute is the coordinator's scoped recompute on the
// shard's own walk (scope.go): the same expansion, rate save, component
// allocation, re-projection and due predicate, with the shard's heap as
// the re-projection target.
//
// Bit-exactness rests on three properties. First, a barrier round runs
// the recompute triggered by a completion batch at the batch's own
// virtual time (the clock advances before the batch and the next round's
// recompute happens before the next advance), which is exactly when the
// window recomputes. Second, component allocation on a clone is
// bit-identical to the full-recompute allocation (the separability
// contract the differential gates establish). Third, everything
// order-sensitive — FlowID recycling, flow_seconds observations,
// completion callbacks — is deferred: windows only record retirements,
// and the coordinator applies them in merged (time, heap key, id) order,
// which is precisely the round-by-round pop order. Callbacks therefore
// fire at their exact virtual times and in the same order as without
// windows, but *after* other shards have simulated past them — hence the
// purity gate (SetPureCallbacks), whose promise the engine checks.

// lookaheadReady reports whether this round may use lookahead windows:
// clones in force (component allocation proven separable for this
// allocator), no full-recompute escape hatch, no time-advance observer,
// and no completion callbacks unless declared pure.
func (e *Engine) lookaheadReady() bool {
	sh := e.sh
	if e.full || e.dirtyAll || e.OnAdvance != nil ||
		(e.onDoneCount > 0 && !e.pureCallbacks) {
		return false
	}
	return sh.ensureClones(e.alloc)
}

// computeIsolation refreshes the per-shard isolation flags from the
// network's pod-coupling counters: a shard is isolated while every pod
// it owns is uncoupled.
func (e *Engine) computeIsolation() {
	iso := e.sh.isolated
	for i := range iso {
		iso[i] = true
	}
	for p := 0; p < e.sh.part.NumParts(); p++ {
		if e.net.podCoupled(int32(p)) {
			iso[min(p, len(iso)-1)] = false // pod p's shard: p per pod, else 0
		}
	}
}

// runLookahead runs one lookahead round: every isolated shard with a
// completion strictly below the safe horizon h advances all its
// completions up to h in a local window, concurrently; the coordinator
// then applies the merged retirements in round-by-round order. The
// caller guarantees at least one shard qualifies, and every window
// retires at least its first batch, so a round always makes progress.
func (e *Engine) runLookahead(h float64) error {
	sh := e.sh
	e.growFlowSeen() // windows mark flows concurrently and never grow it
	sh.busy = sh.busy[:0]
	for i, s := range sh.shards {
		if !sh.isolated[i] {
			continue
		}
		if at, _, ok := s.completions.Min(); ok && at < h-timeSlack {
			sh.busy = append(sh.busy, i)
		}
	}
	sh.windowH = h
	e.runPhase(sh.busy, (*Engine).runWindow)

	recomputes, dirtyFlows := 0, 0
	sh.mergedR = sh.mergedR[:0]
	for _, i := range sh.busy {
		s := sh.shards[i]
		recomputes += s.wRecs
		dirtyFlows += s.wDirty
		sh.mergedR = append(sh.mergedR, s.retired...)
	}
	// Merged (time, heap key, id) order is the pop order without windows:
	// time orders the rounds, and within a round the heaps pop by (key, id).
	slices.SortFunc(sh.mergedR, func(a, b retirement) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		default:
			return a.id - b.id
		}
	})
	for _, r := range sh.mergedR {
		if r.at > e.clock.Now() {
			if err := e.clock.AdvanceTo(r.at); err != nil {
				return err
			}
			e.net.now = r.at
		}
		id := FlowID(r.id)
		fn := e.takeDone(id)
		e.tel.flowSeconds.Observe(r.at - e.net.flows[id].Start)
		// homeOf reads the flow's Src, which finishRemoved leaves intact.
		sh.shards[e.homeOf(id)].active--
		e.net.finishRemoved(id)
		e.tel.flowCompletions.Inc()
		if fn != nil {
			e.fire(fn, id)
		}
	}

	e.tel.flowsActive.Set(float64(e.net.NumActive()))
	for _, i := range sh.busy {
		s := sh.shards[i]
		if s.gActive != nil {
			s.gActive.Set(float64(s.active))
		}
		if s.gHeap != nil {
			s.gHeap.Set(float64(s.completions.Len()))
		}
	}
	e.tel.heapSize.Set(float64(e.heapLen()))
	e.tel.rateRecomputes.Add(uint64(recomputes))
	e.tel.scopedRecomputes.Add(uint64(recomputes))
	e.tel.dirtyFlows.Add(uint64(dirtyFlows))
	e.tel.events.Add(uint64(len(sh.mergedR)))
	e.tel.lookaheadRounds.Inc()
	e.tel.lookaheadEvents.Add(uint64(len(sh.mergedR)))
	return nil
}

// runWindow is the per-shard window phase body: it advances isolated
// shard i through every completion strictly below the round's safe
// horizon sh.windowH, emulating barrier rounds locally:
// pop the due batch at the shard's next completion time, retire and
// detach the batch, recompute the components its freed links seed, and
// re-project — repeating until the shard's next completion reaches the
// horizon. Runs on a worker goroutine; touches only the shard's own
// flows, links, heap, and scratch (plus disjoint owner-only marks in the
// engine-shared flowSeen and linkSeen arrays).
func (e *Engine) runWindow(i int) {
	s, h := e.sh.shards[i], e.sh.windowH
	s.retired = s.retired[:0]
	s.wRecs, s.wDirty = 0, 0
	for {
		tb, _, ok := s.completions.Min()
		if !ok || tb >= h-timeSlack {
			return
		}
		// Pop every flow due at tb. The first pop always passes (its key
		// is tb), so every window iteration retires at least one flow.
		s.seeds = s.seeds[:0]
		for {
			at, idInt, ok := s.completions.Min()
			if !ok {
				break
			}
			f := &e.net.flows[idInt]
			if !due(f, at, tb) {
				break
			}
			s.completions.Pop()
			f.Remaining = 0
			f.lastSet = tb
			s.seeds = append(s.seeds, f.Path...)
			e.net.detach(f, FlowID(idInt))
			s.retired = append(s.retired, retirement{at: tb, key: at, id: idInt})
		}
		e.windowRecompute(s, tb)
	}
}

// windowRecompute is the window-local scoped recompute at the batch time:
// expand the batch's freed links into components on the shard's walk,
// allocate each on the shard's clone, and re-project onto the shard's
// heap — skipping bitwise-unchanged rates, so lazy projections stay
// identical to a run without windows.
func (e *Engine) windowRecompute(s *engineShard, tb float64) {
	w := &s.walk
	w.expand(e.net, e.flowSeen, e.linkSeen, e.epoch.Add(1), s.seeds, nil)
	w.save(e.net)
	for c := 0; c+1 < len(w.off); c++ {
		allocComp(s.alloc, e.net, w.comp(c))
	}
	e.reproject(w, tb, &s.completions)
	s.wRecs++
	s.wDirty += len(w.ids)
}
