package netsim

import (
	"fmt"
	"math/bits"
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
// before the recompute, parallel to ids; links holds every link the walk
// marked, in marking order. The walk's epoch marks live in the
// engine-shared flowSeen and linkSeen arrays, which is safe for
// concurrent windows because each walk draws a unique epoch and an
// isolated shard's components reach only its own flows and links. The
// bitset ascend orders components with is the walk's own, so concurrent
// windows never read one another's bits.
type scopeWalk struct {
	ids   []FlowID
	off   []int
	old   []float64
	links []topology.LinkID
	stack []topology.LinkID // BFS worklist
	bits  []uint64          // ascend's scratch; all zero between calls
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
	w.ids, w.off, w.links = w.ids[:0], w.off[:0], w.links[:0]
	for _, l := range links {
		w.push(linkSeen, ep, l)
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
		for _, l := range f.Path {
			w.push(linkSeen, ep, l)
		}
		w.grow(net, flowSeen, linkSeen, ep, start)
	}
	w.off = append(w.off, len(w.ids))
}

// push marks link l, records it and queues it for the BFS, unless the
// walk has marked it already.
func (w *scopeWalk) push(linkSeen []int64, ep int64, l topology.LinkID) {
	if linkSeen[l] != ep {
		linkSeen[l] = ep
		w.links = append(w.links, l)
		w.stack = append(w.stack, l)
	}
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
				w.push(linkSeen, ep, fl)
			}
		}
	}
	if len(w.ids) > start {
		w.ascend(w.ids[start:])
		w.off = append(w.off, start)
	}
}

// ascend puts one component's distinct flow IDs in ascending order. A
// component dense in its ID span — no more 64-bit words of span than
// n·⌊log₂ n⌋ for n flows, so reading the span back costs no more than
// sorting would — is ordered through the walk's bitset: each ID is
// marked, then the span is read back in order, clearing each word as it
// goes, so the bitset is all zero again afterwards. A sparse component
// is sorted. The order is the same either way.
func (w *scopeWalk) ascend(ids []FlowID) {
	n := len(ids)
	if n < 2 {
		return
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids[1:] {
		lo, hi = min(lo, id), max(hi, id)
	}
	base := int(lo) >> 6
	span := int(hi)>>6 - base + 1
	if !denseSpan(n, span) {
		slices.Sort(ids)
		return
	}
	if len(w.bits) < span {
		w.bits = make([]uint64, span)
	}
	b := w.bits[:span]
	for _, id := range ids {
		b[int(id)>>6-base] |= 1 << (uint(id) & 63)
	}
	k := 0
	for i, word := range b {
		for word != 0 {
			ids[k] = FlowID((base+i)<<6 + bits.TrailingZeros64(word))
			k++
			word &= word - 1
		}
		b[i] = 0
	}
}

// denseSpan reports whether ascend orders n IDs spanning span bitset
// words through the bitset rather than by sorting.
func denseSpan(n, span int) bool { return span <= n*(bits.Len(uint(n))-1) }

// cover sets the walk to the whole active flow set, as full and widened
// recomputes allocate it, with links every link that carries a flow.
func (w *scopeWalk) cover(net *Network) {
	w.ids = net.ActiveInto(w.ids[:0])
	w.links = w.links[:0]
	for l, fs := range net.linkFlows {
		if len(fs) > 0 {
			w.links = append(w.links, topology.LinkID(l))
		}
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
