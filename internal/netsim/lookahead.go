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
// A shard is *isolated* this round when no attached flow couples any of
// its pods to the rest of the fabric (Network.podCoupled: a flow couples
// a pod iff its path crosses a partition cut and touches the pod). Every
// flow sharing a link with an isolated pod's flow is itself pod-local and
// homed on the same shard, so the shard's completions, the recomputes
// they trigger, and the re-projections those produce are all confined to
// the shard until either (a) a non-isolated shard's event or (b) a
// scheduled timer runs. The earliest such external event is the safe
// horizon H = min(HorizonExcept(isolated), next timer, run horizon):
// below H (strictly, by timeSlack) an isolated shard may emulate barrier
// rounds locally — pop the due batch, detach the retired flows, recompute
// the seeded components at the batch time, re-project — without any other
// shard observing the difference.
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
// purity gate (SetPureCallbacks).

// lookaheadReady reports whether this round may use lookahead windows:
// clones in force (component allocation proven separable for this
// allocator), no full-recompute escape hatch, no time-advance observer,
// and no completion callbacks unless declared pure.
func (e *Engine) lookaheadReady() bool {
	sh := e.sh
	if !sh.lookahead || e.full || e.dirtyAll || e.OnAdvance != nil ||
		(e.onDoneCount > 0 && !e.pureCallbacks) {
		return false
	}
	sh.ensureClones(e.alloc)
	return sh.clones
}

// computeIsolation refreshes the per-shard isolation flags from the
// network's pod-coupling counters.
func (e *Engine) computeIsolation() {
	sh := e.sh
	for i, s := range sh.shards {
		iso := true
		for _, p := range s.pods {
			if e.net.podCoupled(p) {
				iso = false
				break
			}
		}
		sh.isolated[i] = iso
	}
}

// runShardWindow is the per-shard window phase body, reading the
// round's safe horizon from sh.windowH.
func (e *Engine) runShardWindow(i int) {
	e.runWindow(e.sh.shards[i], e.sh.windowH)
}

// runLookahead runs one lookahead round: every isolated shard with a
// completion strictly below the safe horizon h advances all its
// completions up to h in a local window, concurrently; the coordinator
// then applies the merged retirements in round-by-round order. The
// caller guarantees at least one shard qualifies, and every window
// retires at least its first batch, so a round always makes progress.
func (e *Engine) runLookahead(h float64) error {
	sh := e.sh
	// Pre-grow the shared flow-mark array: workers mark flows during
	// window traversals and must never grow shared slices concurrently.
	for len(e.flowSeen) < len(e.net.flows) {
		e.flowSeen = append(e.flowSeen, 0)
	}
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
	e.runPhase(sh.busy, (*Engine).runShardWindow)

	declined := false
	recomputes, dirtyFlows := 0, 0
	sh.mergedR = sh.mergedR[:0]
	for _, i := range sh.busy {
		s := sh.shards[i]
		declined = declined || s.wDeclined
		recomputes += s.wRecs
		dirtyFlows += s.wDirty
		sh.mergedR = append(sh.mergedR, s.retired...)
	}
	if declined {
		// Defensive recovery (no shardable discipline declines today): the
		// declining window rolled its rates back, so the state is feasible
		// but no longer provably bit-exact. Latch lookahead off for the
		// run and schedule a full recompute rather than compound the
		// divergence.
		sh.lookahead = false
		e.dirty = true
		e.dirtyAll = true
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
			fn(e, id)
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

// runWindow advances one isolated shard through every completion
// strictly below the horizon, emulating barrier rounds locally:
// pop the due batch at the shard's next completion time, retire and
// detach the batch, recompute the components its freed links seed, and
// re-project — repeating until the shard's next completion reaches the
// horizon. Runs on a worker goroutine; touches only the shard's own
// flows, links, heap, and scratch (plus disjoint owner-only marks in the
// engine-shared flowSeen array).
func (e *Engine) runWindow(s *engineShard, h float64) {
	s.wDeclined = false
	s.retired = s.retired[:0]
	s.wRecs, s.wDirty = 0, 0
	for len(s.linkSeen) < len(e.net.linkFlows) {
		s.linkSeen = append(s.linkSeen, 0)
	}
	for {
		tb, _, ok := s.completions.Min()
		if !ok || tb >= h-timeSlack {
			return
		}
		// Pop every flow due at tb — collectShardDue's predicate verbatim.
		// The first pop always passes (its key is tb), so every window
		// iteration retires at least one flow.
		s.seeds = s.seeds[:0]
		for {
			at, idInt, ok := s.completions.Min()
			if !ok {
				break
			}
			f := &e.net.flows[idInt]
			if at > tb && f.RemainingAt(tb) > completionSlack(f) {
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
		if s.wDeclined {
			return
		}
	}
}

// windowRecompute is the window-local scoped recompute: expand the batch
// seeds into link-connected components (per-shard linkSeen marks, shared
// flowSeen with owner-only writes — isolation confines the components to
// the shard's own flows), allocate each component on the shard's clone,
// and re-project exactly as reproject would at the batch time — skipping
// bitwise-unchanged rates, so lazy projections stay identical to a run
// without windows.
func (e *Engine) windowRecompute(s *engineShard, tb float64) {
	ep := e.epoch.Add(1)
	s.wIDs = s.wIDs[:0]
	s.wCompOff = s.wCompOff[:0]
	for _, seed := range s.seeds {
		if s.linkSeen[seed] == ep {
			continue
		}
		s.linkSeen[seed] = ep
		s.wStack = append(s.wStack[:0], seed)
		start := len(s.wIDs)
		for len(s.wStack) > 0 {
			l := s.wStack[len(s.wStack)-1]
			s.wStack = s.wStack[:len(s.wStack)-1]
			for _, fid := range e.net.linkFlows[l] {
				if e.flowSeen[fid] == ep {
					continue
				}
				e.flowSeen[fid] = ep
				s.wIDs = append(s.wIDs, fid)
				for _, fl := range e.net.flows[fid].Path {
					if s.linkSeen[fl] != ep {
						s.linkSeen[fl] = ep
						s.wStack = append(s.wStack, fl)
					}
				}
			}
		}
		if len(s.wIDs) > start {
			slices.Sort(s.wIDs[start:])
			s.wCompOff = append(s.wCompOff, start)
		}
	}
	s.wCompOff = append(s.wCompOff, len(s.wIDs))

	s.wOld = s.wOld[:0]
	for _, id := range s.wIDs {
		s.wOld = append(s.wOld, e.net.flows[id].Rate)
	}
	for c := 0; c+1 < len(s.wCompOff); c++ {
		comp := s.wIDs[s.wCompOff[c]:s.wCompOff[c+1]]
		if !s.alloc.AllocateScoped(e.net, comp) {
			// Roll every rate back to its saved in-force value so the
			// recovery recompute (runLookahead schedules a full one)
			// projects flow progress with the rates that actually applied.
			for j, id := range s.wIDs {
				e.net.flows[id].Rate = s.wOld[j]
			}
			s.wDeclined = true
			return
		}
	}
	for i, id := range s.wIDs {
		f := &e.net.flows[id]
		if !f.active {
			continue
		}
		old := s.wOld[i]
		if f.Rate == old {
			continue
		}
		if old > 0 && tb > f.lastSet {
			f.Remaining -= old * (tb - f.lastSet)
			if f.Remaining < 0 {
				f.Remaining = 0
			}
		}
		f.lastSet = tb
		if f.Rate > 0 {
			s.completions.Fix(int(id), tb+f.Remaining/f.Rate)
		} else {
			s.completions.Remove(int(id))
		}
	}
	s.wRecs++
	s.wDirty += len(s.wIDs)
}
