package netsim

import (
	"slices"

	"saba/internal/topology"
)

// Data-plane fault handling. Failing a link (or a switch: every link it
// touches) disrupts the flows crossing it: each victim's progress is
// materialized under its old rate, the flow is detached, and it is either
// rerouted onto a live alternate path or stalled at zero rate until a
// restore brings one back. Both outcomes seed the dirty set so the next
// step re-rates exactly the touched components. Restores resume stalled
// flows but never move rerouted flows back: a flow keeps its detour until
// it completes, so a flapping link cannot thrash the allocation.
//
// With no failures injected these paths are never entered and the engine's
// output is bit-for-bit identical to the failure-free build.

// FailLink fails one directed link. See FailLinks.
func (e *Engine) FailLink(id topology.LinkID) error { return e.FailLinks(id) }

// FailLinks fails a batch of directed links as one topology event: all
// liveness flips are applied first, then every flow crossing any newly
// failed link is disrupted (in ascending FlowID order, for run-to-run
// determinism), then OnTopologyChange fires once. Already-down links are
// skipped. On an unknown link ID the valid links are still processed and
// the first error is returned.
func (e *Engine) FailLinks(ids ...topology.LinkID) error {
	e.mutating("FailLinks")
	var changed []topology.LinkID
	var firstErr error
	for _, l := range ids {
		ch, err := e.net.top.FailLink(l)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ch {
			changed = append(changed, l)
			e.tel.linkFailures.Inc()
		}
	}
	if len(changed) == 0 {
		return firstErr
	}
	e.disruptOn(changed)
	e.notifyTopologyChange()
	return firstErr
}

// RestoreLink restores one directed link. See RestoreLinks.
func (e *Engine) RestoreLink(id topology.LinkID) error { return e.RestoreLinks(id) }

// RestoreLinks restores a batch of directed links as one topology event,
// then attempts to resume every stalled flow over the recovered fabric.
// Flows that were rerouted around the failure keep their detours.
func (e *Engine) RestoreLinks(ids ...topology.LinkID) error {
	e.mutating("RestoreLinks")
	changed := false
	var firstErr error
	for _, l := range ids {
		ch, err := e.net.top.RestoreLink(l)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ch {
			changed = true
			e.tel.linkRestores.Inc()
		}
	}
	if !changed {
		return firstErr
	}
	e.resumeStalled()
	e.notifyTopologyChange()
	return firstErr
}

// FailSwitch fails every link attached to the switch (both directions),
// disrupting the flows crossing any of them.
func (e *Engine) FailSwitch(n topology.NodeID) error {
	e.mutating("FailSwitch")
	changed, err := e.net.top.FailSwitch(n)
	if err != nil {
		return err
	}
	if len(changed) == 0 {
		return nil
	}
	e.tel.linkFailures.Add(uint64(len(changed)))
	e.disruptOn(changed)
	e.notifyTopologyChange()
	return nil
}

// RestoreSwitch restores every link attached to the switch and resumes
// stalled flows.
func (e *Engine) RestoreSwitch(n topology.NodeID) error {
	e.mutating("RestoreSwitch")
	changed, err := e.net.top.RestoreSwitch(n)
	if err != nil {
		return err
	}
	if len(changed) == 0 {
		return nil
	}
	e.tel.linkRestores.Add(uint64(len(changed)))
	e.resumeStalled()
	e.notifyTopologyChange()
	return nil
}

// StalledFlows returns the number of active flows currently parked with
// no live path.
func (e *Engine) StalledFlows() int { return e.stalledCount }

// disruptOn disrupts every flow crossing any of the given links. Victims
// are collected up front (disruption mutates the per-link flow lists),
// deduplicated, and processed in ascending FlowID order so the resulting
// float state is identical run to run.
func (e *Engine) disruptOn(links []topology.LinkID) {
	var victims []FlowID
	seen := make(map[FlowID]bool)
	for _, l := range links {
		for _, fid := range e.net.linkFlows[l] {
			if !seen[fid] {
				seen[fid] = true
				victims = append(victims, fid)
			}
		}
	}
	slices.Sort(victims)
	for _, fid := range victims {
		e.disrupt(fid)
	}
}

// disrupt tears one flow off its (now partially dead) path: progress under
// the old rate is materialized, the flow is detached and its old links are
// seeded for recomputation, then it is re-attached on a live alternate
// path if one exists or stalled at zero rate otherwise.
func (e *Engine) disrupt(id FlowID) {
	f := &e.net.flows[id]
	if !f.active || f.stalled {
		return
	}
	now := e.Now()
	if f.Rate > 0 && now > f.lastSet {
		f.Remaining = f.RemainingAt(now)
	}
	f.lastSet = now
	f.Rate = 0
	e.heapRemove(id)
	e.seedLinks = append(e.seedLinks, f.Path...)
	e.net.detach(f, id)
	e.seedFlows = append(e.seedFlows, id)
	e.dirty = true

	if path, err := e.net.routeLive(f.Src, f.Dst); err == nil {
		e.net.attach(f, id, path)
		e.seedLinks = append(e.seedLinks, path...)
		e.tel.flowReroutes.Inc()
		return
	}
	f.stalled = true
	e.stalled = append(e.stalled, id)
	e.stalledCount++
	e.tel.flowStalls.Inc()
}

// resumeStalled re-attaches every stalled flow for which a live path now
// exists. Flows whose endpoints are still cut off stay parked.
func (e *Engine) resumeStalled() {
	if e.stalledCount == 0 {
		e.stalled = e.stalled[:0]
		return
	}
	keep := e.stalled[:0]
	for _, id := range e.stalled {
		f := &e.net.flows[id]
		if !f.active || !f.stalled {
			continue // slot recycled, or a duplicate entry already resumed
		}
		path, err := e.net.routeLive(f.Src, f.Dst)
		if err != nil {
			keep = append(keep, id)
			continue
		}
		f.stalled = false
		f.lastSet = e.Now()
		e.net.attach(f, id, path)
		e.seedFlows = append(e.seedFlows, id)
		e.seedLinks = append(e.seedLinks, path...)
		e.stalledCount--
		e.tel.flowResumes.Inc()
		e.dirty = true
	}
	e.stalled = keep
}

// registerIfStalled tracks a freshly admitted flow that arrived while its
// only path was down (Network.AddFlow admits it parked).
func (e *Engine) registerIfStalled(id FlowID) {
	if f := &e.net.flows[id]; f.stalled {
		e.stalled = append(e.stalled, id)
		e.stalledCount++
		e.tel.flowStalls.Inc()
	}
}

// notifyTopologyChange fires the reconvergence hook with the new liveness
// epoch.
func (e *Engine) notifyTopologyChange() {
	if e.OnTopologyChange != nil {
		e.OnTopologyChange(e, e.net.top.Epoch())
	}
}
