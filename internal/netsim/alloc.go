package netsim

import (
	"saba/internal/topology"
)

// Allocator assigns a Rate to every active flow of a network. Allocators
// are invoked by the Engine whenever the flow set changes.
type Allocator interface {
	// Name identifies the discipline in reports.
	Name() string
	// Allocate recomputes all flow rates in place.
	Allocate(net *Network)
	// AllocateScoped recomputes rates for exactly the given flows and
	// returns true, or returns false without side effects when the
	// discipline cannot localize (the caller must then fall back to a
	// full Allocate).
	//
	// The contract: ids is a union of link-connected components of the
	// active flow set, in ascending order — every active flow sharing a
	// link with a member is itself a member. Max-min water-filling is
	// separable across such components (no link couples them), so
	// disciplines built on progressive filling produce rates bit-for-bit
	// identical to a global recompute restricted to ids. Globally-coupled
	// disciplines — Sincronia's coflow ordering, Homa's residual-size
	// bands — decline by returning false.
	AllocateScoped(net *Network, ids []FlowID) bool
}

// ShardableAllocator marks disciplines whose AllocateScoped may run
// concurrently on disjoint link-connected components — the property the
// sharded engine exploits to allocate per-pod dirty sets in parallel.
// ShardClone returns an allocator that shares this one's configuration
// (weights, objectives, port tables — state mutated only from serial
// engine phases) but owns all scratch and caches, or nil when the
// current configuration cannot be sharded (e.g. Decentral with a
// telemetry channel attached, whose publish sequence must match the
// full-recompute reference exactly). Clones accept every component:
// AllocateScoped on a clone (or on the parent, which stands in for its
// clones when the engine has no worker pool) returns true, and the
// engine panics, naming the allocator, if one declines.
// Globally-coupled disciplines (Homa, Sincronia) simply do not
// implement the interface.
type ShardableAllocator interface {
	Allocator
	ShardClone() Allocator
}

// IdealMaxMin is per-flow max-min fairness computed by progressive
// filling — the idealized upper bound of any congestion-control protocol
// targeting max-min fairness (paper §8.1, §8.4 study 4: per-queue
// round-robin with one flow per queue).
type IdealMaxMin struct {
	filler *Filler
}

// NewIdealMaxMin creates the ideal max-min allocator for net.
func NewIdealMaxMin(net *Network) *IdealMaxMin {
	return &IdealMaxMin{filler: NewFiller(net)}
}

// Name implements Allocator.
func (*IdealMaxMin) Name() string { return "ideal-maxmin" }

// Allocate implements Allocator.
func (a *IdealMaxMin) Allocate(net *Network) {
	a.AllocateScoped(net, net.ActiveIDs())
}

// AllocateScoped implements Allocator: progressive filling is link-local,
// so filling only the dirty components reproduces the global result.
func (a *IdealMaxMin) AllocateScoped(net *Network, ids []FlowID) bool {
	a.filler.ResetFor(net, ids)
	a.filler.Run(net, ids, FlatClassifier{})
	return true
}

// ShardClone implements ShardableAllocator: the discipline carries no
// state beyond Filler scratch, so a clone is a scoped view of the
// parent's Filler (shared per-link arrays, owned run scratch).
func (a *IdealMaxMin) ShardClone() Allocator {
	return &IdealMaxMin{filler: a.filler.cloneScoped()}
}

// DefaultFECNEfficiency is the fraction of a congested link's capacity
// that the InfiniBand FECN/BECN control loop delivers with two competing
// flows. The sawtooth of rate reduction on congestion notification and
// gradual recovery leaves headroom; measurements of CC-enabled InfiniBand
// under incast place goodput at roughly 85-90% of line rate.
const DefaultFECNEfficiency = 0.88

// CrowdPenalty is how much additional utilization each extra competing
// application costs on a congested port, down to MinFECNEfficiency. With
// many uncoordinated QPs sharing one queue, CC oscillation, head-of-line
// blocking and victim flows compound — the severe many-flow interference
// measured on real InfiniBand switches (Katebzadeh et al., ISPASS'20) —
// whereas Saba's per-application VL separation sidesteps it.
const (
	CrowdPenalty       = 0.12
	MinFECNEfficiency  = 0.28
	crowdReferenceApps = 2 // DefaultFECNEfficiency is calibrated at 2 apps
)

// FECN models the paper's baseline: per-flow max-min fairness as
// approximated by InfiniBand's end-to-end congestion management. It
// performs progressive filling twice: a first pass finds which links are
// saturated; a second pass derates exactly those links by the efficiency
// factor, capturing that only congested links suffer the control-loop
// loss (an uncontended flow still reaches line rate).
type FECN struct {
	Efficiency float64
	// Crowd and MinEff shape how efficiency decays with the number of
	// applications sharing a congested port. The defaults model the
	// hardware testbed baseline (real InfiniBand, severe many-flow
	// interference); SimProfile yields the paper's OMNeT-style simulated
	// baseline, whose CC model loses far less (its ideal-max-min gap is
	// only 1.14x, §8.4).
	Crowd  float64
	MinEff float64
	filler *Filler

	// src, on a shard clone, points at the allocator the clone was
	// derived from; the clone re-reads the shared profile from it on
	// every allocation so SimProfile (and future drift adjustments),
	// which mutate the parent from serial engine phases, reach clones.
	src *FECN

	// Scratch: the congested links found by pass 1 with their derated
	// capacities, plus epoch marks so each link is inspected once per
	// allocation and each app counted once per link.
	derLinks []topology.LinkID
	derCap   []float64
	linkMark []int64
	appMark  []int64
}

// NewFECN creates the baseline allocator with the given efficiency; 0
// selects DefaultFECNEfficiency.
func NewFECN(net *Network, efficiency float64) *FECN {
	if efficiency <= 0 || efficiency > 1 {
		efficiency = DefaultFECNEfficiency
	}
	return &FECN{
		Efficiency: efficiency,
		Crowd:      CrowdPenalty,
		MinEff:     MinFECNEfficiency,
		filler:     NewFiller(net),
		linkMark:   make([]int64, len(net.Topology().Links())),
	}
}

// SimProfile switches the baseline to the milder congestion-management
// model of the paper's packet simulator: modest utilization loss and a
// gentle crowd effect.
func (a *FECN) SimProfile() *FECN {
	a.Crowd = 0.02
	a.MinEff = 0.72
	return a
}

// Name implements Allocator.
func (*FECN) Name() string { return "fecn-baseline" }

// Allocate implements Allocator.
func (a *FECN) Allocate(net *Network) {
	a.AllocateScoped(net, net.ActiveIDs())
}

// AllocateScoped implements Allocator. Both the discovery of saturated
// links and the derating are per-link decisions over the flows crossing
// that link, and a dirty component owns its links outright, so scoping
// the two filling passes to the component reproduces the global result.
func (a *FECN) AllocateScoped(net *Network, ids []FlowID) bool {
	if a.src != nil {
		a.Efficiency, a.Crowd, a.MinEff = a.src.Efficiency, a.src.Crowd, a.src.MinEff
	}
	// Pass 1: ideal rates to discover saturated links.
	a.filler.ResetFor(net, ids)
	a.filler.Run(net, ids, FlatClassifier{})

	a.derLinks = a.derLinks[:0]
	a.derCap = a.derCap[:0]
	runEp := markEpoch.Add(1)
	for _, id := range ids {
		f := &net.flows[id]
		if !f.active {
			continue
		}
		for _, l := range f.Path {
			if a.linkMark[l] == runEp {
				continue // already inspected this allocation
			}
			a.linkMark[l] = runEp
			// FECN marking needs actual queue buildup: a saturated link
			// with at least two competing flows. A lone flow at line rate
			// keeps queues empty and is never marked. Beyond two
			// competitors, every extra application sharing the single
			// queue costs additional goodput (CC oscillation + HOL).
			c := net.Capacity(l)
			if c > 0 && len(net.FlowsOn(l)) >= 2 && net.LinkUtilization(l) >= 0.999 {
				appEp := markEpoch.Add(1)
				apps := 0
				for _, fid := range net.FlowsOn(l) {
					slot := int(net.flows[fid].App) + 1 // NoApp occupies slot 0
					for slot >= len(a.appMark) {
						a.appMark = append(a.appMark, 0)
					}
					if a.appMark[slot] != appEp {
						a.appMark[slot] = appEp
						apps++
					}
				}
				eff := a.Efficiency - a.Crowd*float64(apps-crowdReferenceApps)
				if eff < a.MinEff {
					eff = a.MinEff
				}
				if eff > a.Efficiency {
					eff = a.Efficiency
				}
				a.derLinks = append(a.derLinks, l)
				a.derCap = append(a.derCap, c*eff)
			}
		}
	}
	if len(a.derLinks) == 0 {
		return true // nothing congested: ideal rates stand
	}
	// Pass 2: refill with congested links derated.
	a.filler.ResetFor(net, ids)
	for i, l := range a.derLinks {
		a.filler.capRem[l] = a.derCap[i]
	}
	a.filler.Run(net, ids, FlatClassifier{})
	return true
}

// ShardClone implements ShardableAllocator: per-link derating is a pure
// function of the flows crossing a link. The filler and linkMark are
// shared with the parent (clones allocate on disjoint link-connected
// components, so per-link element writes never collide, and linkMark
// freshness is epoch-gated by globally unique markEpoch values);
// appMark is app-indexed — two clones' components can contain the same
// application — so it stays clone-owned, as do derLinks/derCap. The
// profile parameters are re-read from src on every allocation (see
// AllocateScoped).
func (a *FECN) ShardClone() Allocator {
	return &FECN{
		Efficiency: a.Efficiency,
		Crowd:      a.Crowd,
		MinEff:     a.MinEff,
		filler:     a.filler.cloneScoped(),
		linkMark:   a.linkMark,
		src:        a,
	}
}
