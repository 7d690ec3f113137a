package netsim

import (
	"math"
	"slices"
	"sync/atomic"

	"saba/internal/topology"
)

// markEpoch issues process-unique epochs for the mark-array pattern the
// allocators use ("was this link/app seen during the current pass?"):
// a mark array holds the epoch of its last visit and a slot is fresh
// iff it equals the pass's epoch. Drawing epochs from one global atomic
// counter makes every pass's epoch unique across all allocator
// instances and goroutines, which is what lets shard clones share mark
// arrays (cloneScoped): a stale value written by another clone can
// never collide with a fresh epoch. Epoch values never influence
// allocation arithmetic, so global sequencing cannot perturb results.
var markEpoch atomic.Int64

// LocalRate is the rate assigned to flows whose source and destination are
// the same host (they never touch the network).
const LocalRate = 1e15 // bits/sec

// ClassSpec describes one scheduling class at a link.
//
// PerFlow=true means every flow in the class carries Weight on its own
// (per-flow max-min: the class contributes Weight × count to the link's
// demand). PerFlow=false means the class has a fixed aggregate Weight
// split equally among its backlogged flows (a WFQ queue).
type ClassSpec struct {
	Weight  float64
	PerFlow bool
}

// Classifier maps flows to scheduling classes per link. Implementations
// encode the arbitration discipline: per-flow fairness, WFQ queues, etc.
type Classifier interface {
	// LinkClasses returns the class table of a link. The result must be
	// stable for the duration of one Fill run.
	LinkClasses(l topology.LinkID) []ClassSpec
	// FlowClass returns the index (into LinkClasses(l)) of the class that
	// flow f occupies at link l.
	FlowClass(f *Flow, l topology.LinkID) int
}

// FlatClassifier implements plain per-flow max-min: one per-flow class of
// weight 1 at every link.
type FlatClassifier struct{}

var flatClasses = []ClassSpec{{Weight: 1, PerFlow: true}}

// LinkClasses returns the single per-flow class.
func (FlatClassifier) LinkClasses(topology.LinkID) []ClassSpec { return flatClasses }

// FlowClass puts every flow in class 0.
func (FlatClassifier) FlowClass(*Flow, topology.LinkID) int { return 0 }

// Filler computes max-min-style rate allocations via progressive filling
// (water-filling) generalized to hierarchical per-link classes: in each
// round every contended link advertises a fair share per class, every
// unfixed flow takes the minimum entitlement along its path, and the
// flows at the global minimum are frozen there. State is reused across
// calls to avoid per-allocation garbage.
type Filler struct {
	capRem  []float64
	sumW    []float64 // weighted demand of unfixed flows per link (classed fill)
	cnt     [][]int32 // per link, per class: unfixed-flow count
	touched []topology.LinkID
	inRun   []bool   // per link: appears in the current Run
	pending []FlowID // flows registered in the current run
	freeze  []FlowID // per-round scratch: flows of the bottleneck class

	// The bottleneck search keeps one key per link — a lower bound on its
	// smallest per-class unit entitlement — in a winner tree over touched
	// indices, and re-keys lazily. The invariant: every stored key is ≤
	// its link's current key. A freeze almost always raises the keys of
	// the links it touches; it lowers one only through float rounding at
	// ties, or under WFQ queue classes, where freezing part of a queue
	// at a lower rate elsewhere shrinks its siblings' share. So after a
	// freeze an affected link is re-keyed only when its key fell below
	// the stored one, and a spent link keeps its stale finite key. Each
	// round recomputes the root link's key: if it differs from the stored
	// key the root is stale, so it is raised and the root read again;
	// otherwise it is the pick. A fresh root i with key k is the eager
	// tree's pick exactly: every link j has current key ≥ stored key ≥ k,
	// and a j < i with current key k would have stored key k and won the
	// tie. The tree picks the lowest touched index among equal minimal
	// keys, which is the exhaustive registration-order scan's pick
	// (including exact ties) bit for bit.
	keys     minTree // leaf i: lower bound on the key of touched[i]
	cntFlat  []int32 // per link: unfixed-flow count (flat fast path)
	tidx     []int32 // per link: index into touched (valid while inRun)
	mark     []int64 // per link: last freeze round that re-checked its key
	affected []topology.LinkID

	// additive makes fix() add to existing rates instead of overwriting —
	// the WFQ top-up passes raise already-allocated flows using residual
	// capacity.
	additive bool
}

// NewFiller creates a Filler sized for the network's link count.
func NewFiller(net *Network) *Filler {
	nl := len(net.Topology().Links())
	return &Filler{
		capRem:  make([]float64, nl),
		sumW:    make([]float64, nl),
		cnt:     make([][]int32, nl),
		cntFlat: make([]int32, nl),
		inRun:   make([]bool, nl),
		tidx:    make([]int32, nl),
		mark:    make([]int64, nl),
	}
}

// cloneScoped returns a Filler for concurrent scoped runs that SHARES
// the parent's per-link arrays (capRem, sumW, cnt, cntFlat, inRun,
// tidx, mark) and owns only the per-run compact scratch. Sharing is
// safe because every concurrent caller operates on a distinct
// link-connected component — two components share no link by
// construction, so element writes to the per-link arrays never
// collide — and pass freshness is tracked through globally unique
// markEpoch values, so stale marks left by another clone can never
// alias a live pass. This is what the sharded engine hands each
// allocator clone (shard.go): clones cost O(1) memory instead of
// re-allocating (and re-growing) seven link-sized arrays each.
func (fl *Filler) cloneScoped() *Filler {
	return &Filler{
		capRem:   fl.capRem,
		sumW:     fl.sumW,
		cnt:      fl.cnt,
		cntFlat:  fl.cntFlat,
		inRun:    fl.inRun,
		tidx:     fl.tidx,
		mark:     fl.mark,
		additive: fl.additive,
	}
}

// Reset initializes remaining capacities from the network (honoring
// overrides). Call once per allocation epoch, before the first Run.
func (fl *Filler) Reset(net *Network) {
	for i := range fl.capRem {
		fl.capRem[i] = net.Capacity(topology.LinkID(i))
	}
}

// ResetFor initializes remaining capacities for exactly the links crossed
// by the given flows — the scoped equivalent of Reset. When ids is a
// union of link-connected components (so no other flow touches those
// links) a subsequent Run over ids reads only the links reset here,
// making the allocation epoch O(Σ path length) instead of O(links).
func (fl *Filler) ResetFor(net *Network, ids []FlowID) {
	for _, id := range ids {
		f := &net.flows[id]
		if !f.active {
			continue
		}
		for _, l := range f.Path {
			fl.capRem[l] = net.Capacity(l)
		}
	}
}

// Run allocates rates for the given flows against the remaining
// capacities, decrementing them so subsequent Runs see only the leftover
// (strict-priority composition). Flows not in ids are ignored entirely;
// their demand must already be reflected in capRem by a previous Run.
func (fl *Filler) Run(net *Network, ids []FlowID, cls Classifier) {
	if len(ids) == 0 {
		return
	}
	if _, flat := cls.(FlatClassifier); flat {
		// The four flat disciplines dominate simulation time; the
		// specialized loop below computes bit-identical results (single
		// class of weight 1, so every float expression degenerates to the
		// same operations) without interface dispatch or per-class state.
		fl.runFlat(net, ids)
		return
	}
	// Register per-link class occupancy for this run.
	fl.touched = fl.touched[:0]
	fl.pending = fl.pending[:0]
	for _, id := range ids {
		f := &net.flows[id]
		if !f.active {
			continue
		}
		if f.stalled {
			// Detached by link failure with no live path: transmits
			// nothing until the Engine re-attaches it.
			f.Rate = 0
			continue
		}
		if len(f.Path) == 0 {
			f.Rate = LocalRate
			continue
		}
		if !fl.additive {
			f.Rate = 0
		}
		f.inRun = true
		fl.pending = append(fl.pending, id)
		for _, l := range f.Path {
			if !fl.inRun[l] {
				fl.inRun[l] = true
				fl.tidx[l] = int32(len(fl.touched))
				fl.touched = append(fl.touched, l)
				nc := len(cls.LinkClasses(l))
				if cap(fl.cnt[l]) < nc {
					fl.cnt[l] = make([]int32, nc)
				} else {
					fl.cnt[l] = fl.cnt[l][:nc]
					for i := range fl.cnt[l] {
						fl.cnt[l][i] = 0
					}
				}
			}
			fl.cnt[l][cls.FlowClass(f, l)] += int32(f.Mult)
		}
	}
	for _, l := range fl.touched {
		fl.sumW[l] = fl.demand(l, cls)
	}

	// Generalized water-filling over (link, class) groups. A flow's
	// per-connection entitlement is the minimum over its path of the
	// link's per-class unit share: share_l × W_q (per-flow class) or
	// share_l × W_q / count_q (WFQ queue), with share_l = capRem_l /
	// weighted demand_l and count_q weighted by connection multiplicity;
	// the flow's rate is that unit entitlement times its Mult. The key
	// observation making this fast: the globally minimal unit entitlement
	// is attained by the (link, class) pair minimizing the per-class
	// share, and *every* unfixed flow in that pair has exactly that unit
	// entitlement (it crosses the pair, so it cannot be higher; the pair
	// is the global minimum, so it cannot be lower). Each round therefore
	// reads the minimum of the per-link keys, freezes a whole class at
	// once, and lowers only the keys of links the frozen flows cross.
	fl.keys.key = slices.Grow(fl.keys.key[:0], len(fl.touched)+1) // +1: build's sentinel
	for _, l := range fl.touched {
		key, _ := fl.linkKey(l, cls)
		fl.keys.key = append(fl.keys.key, key)
	}
	fl.keys.build()
	remaining := len(fl.pending)
	for remaining > 0 {
		ti, stored := fl.keys.min()
		if ti < 0 {
			break // no demand left (cannot happen while remaining > 0)
		}
		bl := fl.touched[ti]
		best, bc := fl.linkKey(bl, cls)
		if fl.keys.stale(ti, best, stored) {
			continue
		}
		// Collect then freeze the bottleneck class (fix mutates counters).
		fl.freeze = fl.freeze[:0]
		for _, fid := range net.linkFlows[bl] {
			f := &net.flows[fid]
			if f.active && f.inRun && cls.FlowClass(f, bl) == bc {
				fl.freeze = append(fl.freeze, fid)
			}
		}
		ep := markEpoch.Add(1)
		fl.affected = fl.affected[:0]
		for _, fid := range fl.freeze {
			f := &net.flows[fid]
			fl.fix(f, best*float64(f.Mult), cls)
			remaining--
			for _, l := range f.Path {
				if fl.mark[l] != ep {
					fl.mark[l] = ep
					fl.affected = append(fl.affected, l)
				}
			}
		}
		if len(fl.freeze) == 0 {
			break // inconsistent counters; avoid spinning
		}
		for _, l := range fl.affected {
			key, _ := fl.linkKey(l, cls)
			fl.keys.lower(int(fl.tidx[l]), key)
		}
	}

	// Clear run markers.
	for _, l := range fl.touched {
		fl.inRun[l] = false
	}
	if remaining > 0 {
		for _, id := range fl.pending {
			net.flows[id].inRun = false
		}
	}
}

// runFlat is Run specialized to FlatClassifier: per-flow max-min with one
// weight-1 class per link. cnt/demand/linkKey collapse to a single
// per-link connection count, and a link's key is capRem/count directly
// (share × weight 1.0 and weight-1 demand sums are bitwise identical to
// the generic expressions), so the flat fill keeps no sumW.
func (fl *Filler) runFlat(net *Network, ids []FlowID) {
	fl.touched = fl.touched[:0]
	fl.pending = fl.pending[:0]
	for _, id := range ids {
		f := &net.flows[id]
		if !f.active {
			continue
		}
		if f.stalled {
			f.Rate = 0
			continue
		}
		if len(f.Path) == 0 {
			f.Rate = LocalRate
			continue
		}
		if !fl.additive {
			f.Rate = 0
		}
		f.inRun = true
		fl.pending = append(fl.pending, id)
		for _, l := range f.Path {
			if !fl.inRun[l] {
				fl.inRun[l] = true
				fl.tidx[l] = int32(len(fl.touched))
				fl.touched = append(fl.touched, l)
				fl.cntFlat[l] = 0
			}
			fl.cntFlat[l] += int32(f.Mult)
		}
	}
	fl.keys.key = slices.Grow(fl.keys.key[:0], len(fl.touched)+1) // +1: build's sentinel
	for _, l := range fl.touched {
		fl.keys.key = append(fl.keys.key, fl.flatKey(l))
	}
	fl.keys.build()
	remaining := len(fl.pending)
	for remaining > 0 {
		ti, stored := fl.keys.min()
		if ti < 0 {
			break // no demand left (cannot happen while remaining > 0)
		}
		bl := fl.touched[ti]
		best := fl.flatKey(bl)
		if fl.keys.stale(ti, best, stored) {
			continue
		}
		fl.freeze = fl.freeze[:0]
		for _, fid := range net.linkFlows[bl] {
			f := &net.flows[fid]
			if f.active && f.inRun {
				fl.freeze = append(fl.freeze, fid)
			}
		}
		ep := markEpoch.Add(1)
		fl.affected = fl.affected[:0]
		for _, fid := range fl.freeze {
			f := &net.flows[fid]
			rate := best * float64(f.Mult)
			if fl.additive {
				f.Rate += rate
			} else {
				f.Rate = rate
			}
			f.inRun = false
			remaining--
			for _, l := range f.Path {
				r := fl.capRem[l] - rate
				if r < 0 {
					r = 0
				}
				fl.capRem[l] = r
				fl.cntFlat[l] -= int32(f.Mult)
				if fl.mark[l] != ep {
					fl.mark[l] = ep
					fl.affected = append(fl.affected, l)
				}
			}
		}
		if len(fl.freeze) == 0 {
			break // inconsistent counters; avoid spinning
		}
		for _, l := range fl.affected {
			fl.keys.lower(int(fl.tidx[l]), fl.flatKey(l))
		}
	}
	for _, l := range fl.touched {
		fl.inRun[l] = false
	}
	if remaining > 0 {
		for _, id := range fl.pending {
			net.flows[id].inRun = false
		}
	}
}

// flatKey is linkKey under FlatClassifier: a link's per-connection fair
// share, or +Inf when no unfixed connection crosses it.
func (fl *Filler) flatKey(l topology.LinkID) float64 {
	n := fl.cntFlat[l]
	if n <= 0 {
		return math.Inf(1)
	}
	c := fl.capRem[l]
	if c < 0 {
		c = 0
	}
	return c / float64(n)
}

// fix assigns the final rate to f and removes its demand from every link
// it crosses, maintaining the weighted-demand sums incrementally.
func (fl *Filler) fix(f *Flow, rate float64, cls Classifier) {
	if fl.additive {
		f.Rate += rate
	} else {
		f.Rate = rate
	}
	f.inRun = false
	for _, l := range f.Path {
		fl.capRem[l] -= rate
		if fl.capRem[l] < 0 {
			fl.capRem[l] = 0
		}
		c := cls.FlowClass(f, l)
		fl.cnt[l][c] -= int32(f.Mult)
		spec := cls.LinkClasses(l)[c]
		if spec.PerFlow {
			fl.sumW[l] -= spec.Weight * float64(f.Mult)
		} else if fl.cnt[l][c] <= 0 {
			fl.sumW[l] -= spec.Weight
		}
	}
}

// linkKey returns a link's minimum per-class unit entitlement and the
// class attaining it (ties prefer the lowest class, matching an
// ascending scan), or (+Inf, -1) when the link has no unfixed demand —
// the sentinel keeps spent links out of the bottleneck scan for free.
func (fl *Filler) linkKey(l topology.LinkID, cls Classifier) (float64, int) {
	w := fl.sumW[l]
	if w <= 1e-12 {
		return math.Inf(1), -1
	}
	c := fl.capRem[l]
	if c < 0 {
		c = 0
	}
	share := c / w
	specs := cls.LinkClasses(l)
	best := -1.0
	bq := -1
	for q, n := range fl.cnt[l] {
		if n <= 0 {
			continue
		}
		ent := share * specs[q].Weight
		if !specs[q].PerFlow {
			ent /= float64(n)
		}
		if bq < 0 || ent < best {
			best, bq = ent, q
		}
	}
	if bq < 0 {
		return math.Inf(1), -1
	}
	return best, bq
}

// demand returns the weighted demand of unfixed run-flows at link l.
func (fl *Filler) demand(l topology.LinkID, cls Classifier) float64 {
	specs := cls.LinkClasses(l)
	w := 0.0
	for c, n := range fl.cnt[l] {
		if n <= 0 {
			continue
		}
		if specs[c].PerFlow {
			w += specs[c].Weight * float64(n)
		} else {
			w += specs[c].Weight
		}
	}
	return w
}

// minTree is a winner (tournament) tree over a key vector: the bottleneck
// search of progressive filling. Leaves sit in index order in a
// power-of-two layer, so a node's left subtree holds lower indices than
// its right, and a node keeps its left child's winner unless the right
// key is strictly smaller: the root names the lowest index among equal
// minimal keys, exactly the pick of an ascending scan with a strict <.
// Padding leaves name a +Inf sentinel slot after the real keys, and NaN
// keys are stored as +Inf; neither a +Inf nor a NaN key can win over a
// finite one, as the scan never picks them.
type minTree struct {
	key []float64 // leaf keys, then the +Inf sentinel while built
	win []int32   // win[1] is the root; node p's children are 2p, 2p+1
}

// build arranges the tree over key, which holds one key per leaf, in
// O(len(key)).
func (t *minTree) build() {
	n := len(t.key)
	for i, k := range t.key {
		if k != k {
			t.key[i] = math.Inf(1)
		}
	}
	t.key = append(t.key, math.Inf(1))
	size := 1
	for size < n {
		size <<= 1
	}
	if cap(t.win) < 2*size {
		t.win = make([]int32, 2*size)
	}
	t.win = t.win[:2*size]
	for i := 0; i < size; i++ {
		t.win[size+i] = int32(min(i, n))
	}
	for p := size - 1; p >= 1; p-- {
		t.win[p] = t.pick(t.win[2*p], t.win[2*p+1])
	}
}

// pick returns the winner of a node with children winners l and r.
func (t *minTree) pick(l, r int32) int32 {
	if t.key[r] < t.key[l] {
		return r
	}
	return l
}

// min returns the index and key of the smallest finite key, or (-1,
// +Inf) when every key is +Inf or NaN.
func (t *minTree) min() (int, float64) {
	i := t.win[1]
	k := t.key[i]
	if !(k < math.Inf(1)) {
		return -1, k
	}
	return int(i), k
}

// lower re-keys leaf i to k only when k is below its stored key: the
// one re-key a lazy fill must make eagerly.
func (t *minTree) lower(i int, k float64) {
	if k < t.key[i] {
		t.set(i, k)
	}
}

// stale reports whether the root leaf i is stale: its current key k
// differs from the finite key stored, which min returned. A stale root is
// re-keyed to k (NaN stored as +Inf), and the caller reads the root
// again.
func (t *minTree) stale(i int, k, stored float64) bool {
	if k == stored {
		return false
	}
	t.set(i, k)
	return true
}

// set re-keys leaf i and re-derives its path to the root, stopping at
// the first node whose winner is unchanged and is not leaf i: above it
// nothing can change.
func (t *minTree) set(i int, k float64) {
	if k != k {
		k = math.Inf(1)
	}
	t.key[i] = k
	for p := (len(t.win)/2 + i) >> 1; p >= 1; p >>= 1 {
		w := t.pick(t.win[2*p], t.win[2*p+1])
		if w == t.win[p] && w != int32(i) {
			return
		}
		t.win[p] = w
	}
}
