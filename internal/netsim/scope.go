package netsim

import (
	"fmt"
	"slices"

	"saba/internal/sim"
	"saba/internal/topology"
)

// The scoped-recompute kernel. Every scoped recompute — the
// coordinator's before a barrier round, and a lookahead window's after
// each local completion batch (lookahead.go) — runs the same steps:
// expand the seeds into their link-connected components, save the rates
// in force, allocate each component on a shard clone, and re-project the
// flows whose rates changed. A scopeWalk holds one walk's scratch; the
// coordinator owns one (Engine.walk) and each shard owns one for its
// windows, which run concurrently.

// scopeWalk is the scratch of one component walk. ids holds every
// component's flows contiguously, each component sorted ascending, with
// component c at ids[off[c]:off[c+1]]; old holds the rates in force
// before the recompute, parallel to ids. The walk's epoch marks live in
// the engine-shared flowSeen and linkSeen arrays, which is safe for
// concurrent windows because each walk draws a unique epoch and an
// isolated shard's components reach only its own flows and links.
type scopeWalk struct {
	ids   []FlowID
	off   []int
	old   []float64
	stack []topology.LinkID // BFS worklist
}

// expand replaces the walk's components with those the seeds reach in
// one traversal: the flows link-connected to any seed link, and each
// active seed flow with everything connected to it. Inactive seed flows
// are skipped and a detached stalled flow seeds its last known path, so
// the concatenation of the components is exactly the dirty union.
// flowSeen must cover every flow slot and linkSeen every link.
//
// Seed order is deterministic, so discovery order — and with it the
// component list — is too. Component order is otherwise free:
// components share no links by construction, so AllocateScoped on one is
// independent of every other, which concurrent allocation relies on.
func (w *scopeWalk) expand(net *Network, flowSeen, linkSeen []int64, ep int64, links []topology.LinkID, flows []FlowID) {
	w.ids, w.off = w.ids[:0], w.off[:0]
	for _, l := range links {
		if linkSeen[l] == ep {
			continue
		}
		linkSeen[l] = ep
		w.stack = append(w.stack[:0], l)
		w.grow(net, flowSeen, linkSeen, ep, len(w.ids))
	}
	for _, id := range flows {
		f := &net.flows[id]
		if !f.active || flowSeen[id] == ep {
			continue // e.g. admitted then cancelled before this recompute
		}
		start := len(w.ids)
		flowSeen[id] = ep
		w.ids = append(w.ids, id)
		w.stack = w.stack[:0]
		for _, l := range f.Path {
			if linkSeen[l] != ep {
				linkSeen[l] = ep
				w.stack = append(w.stack, l)
			}
		}
		w.grow(net, flowSeen, linkSeen, ep, start)
	}
	w.off = append(w.off, len(w.ids))
}

// grow drains the link stack into ids and closes out the component that
// started at start (dropped when the seed reached no flows).
func (w *scopeWalk) grow(net *Network, flowSeen, linkSeen []int64, ep int64, start int) {
	for len(w.stack) > 0 {
		l := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		for _, fid := range net.linkFlows[l] {
			if flowSeen[fid] == ep {
				continue
			}
			flowSeen[fid] = ep
			w.ids = append(w.ids, fid)
			for _, fl := range net.flows[fid].Path {
				if linkSeen[fl] != ep {
					linkSeen[fl] = ep
					w.stack = append(w.stack, fl)
				}
			}
		}
	}
	if len(w.ids) > start {
		slices.Sort(w.ids[start:])
		w.off = append(w.off, start)
	}
}

// comp returns component c of the last expansion.
func (w *scopeWalk) comp(c int) []FlowID { return w.ids[w.off[c]:w.off[c+1]] }

// save records the in-force rate of every flow in ids.
func (w *scopeWalk) save(net *Network) {
	w.old = w.old[:0]
	for _, id := range w.ids {
		w.old = append(w.old, net.flows[id].Rate)
	}
}

// allocComp runs a shard clone over one component. ShardableAllocator
// clones accept every component; one that declines would leave the run
// without its bit-exactness guarantee, so the engine panics instead.
func allocComp(a Allocator, net *Network, comp []FlowID) {
	if !a.AllocateScoped(net, comp) {
		panic(fmt.Sprintf("netsim: shard clone of allocator %q declined AllocateScoped; ShardableAllocator clones must accept every component", a.Name()))
	}
}

// reproject materializes Remaining and re-keys the completion heap for
// every flow of the walk whose rate actually changed: on heap when one is
// given (a window's own), otherwise on each flow's home shard heap.
// Flows whose recomputed rate is bitwise unchanged are left alone —
// their lazy projection (and heap key) is still exact, which is what
// makes scoped and full recomputes bit-for-bit identical: both skip
// exactly the flows whose rates agree.
func (e *Engine) reproject(w *scopeWalk, now float64, heap *sim.IndexedHeap) {
	for i, id := range w.ids {
		f := &e.net.flows[id]
		if !f.active {
			continue
		}
		old := w.old[i]
		if f.Rate == old {
			continue
		}
		if old > 0 && now > f.lastSet {
			f.Remaining -= old * (now - f.lastSet)
			if f.Remaining < 0 {
				f.Remaining = 0
			}
		}
		f.lastSet = now
		switch {
		case heap == nil && f.Rate > 0:
			e.heapFix(id, now+f.Remaining/f.Rate)
		case heap == nil:
			e.heapRemove(id)
		case f.Rate > 0:
			heap.Fix(int(id), now+f.Remaining/f.Rate)
		default:
			heap.Remove(int(id))
		}
	}
}

// due reports whether a flow popped with heap key at has finished by
// time t: its key is not past t, or its residual at t is within the
// completion slack. The predicate is intrinsic to the flow, not to pop
// order, so shards and windows collect due flows independently.
func due(f *Flow, at, t float64) bool {
	return !(at > t && f.RemainingAt(t) > completionSlack(f))
}
