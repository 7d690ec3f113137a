// Package netsim is a flow-level (fluid) simulator of a datacenter
// network. Flows traverse the directed links of a topology; a pluggable
// Allocator assigns each active flow a transmission rate according to the
// bandwidth-sharing discipline under study:
//
//   - NewIdealMaxMin: per-flow max-min fairness via progressive filling —
//     the paper's "ideal max-min" upper bound (§8.4, study 4).
//   - NewFECN: the InfiniBand baseline — max-min with the utilization loss
//     of end-to-end FECN congestion management (§8.1).
//   - NewWFQ: Saba's enforcement — per-port queues with weights, flows
//     mapped to queues via PLs (§5.2, §5.3).
//   - NewHoma: flow-size priority classes (§8.4, study 5).
//   - NewSincronia: clairvoyant coflow ordering (§8.4, study 6).
//
// Between rate changes the Engine advances virtual time analytically to
// the next flow or scheduled-event completion, which makes simulating
// hours of cluster time cheap.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"saba/internal/topology"
)

// FlowID indexes a flow within a Network. IDs are recycled after removal.
type FlowID int

// AppID identifies the application a flow belongs to (Saba registration).
type AppID int

// CoflowID groups related flows of one application stage (for Sincronia).
type CoflowID int

// NoApp marks flows that belong to no registered application.
const NoApp AppID = -1

// NoCoflow marks flows outside any coflow.
const NoCoflow CoflowID = -1

// Flow is one active transfer.
//
// Remaining is materialized lazily: it is exact as of virtual time
// lastSet (when the flow was admitted or its rate last changed), and the
// true residual at a later time t is Remaining - Rate×(t - lastSet).
// Use RemainingAt to read the projected value; the Engine materializes
// the field only when the rate actually changes, so a stable flow's
// completion time is computed once instead of being eroded by one
// subtraction per simulation event.
type Flow struct {
	ID        FlowID
	Src, Dst  topology.NodeID
	Path      []topology.LinkID
	Size      float64 // bits, original
	Remaining float64 // bits, as of lastSet (see RemainingAt)
	Rate      float64 // bits/sec, set by the Allocator
	App       AppID
	PL        int // priority level (Saba service level); -1 if unassigned
	Mult      int // parallel-connection multiplicity: counts as Mult flows under per-flow fairness
	Coflow    CoflowID
	Start     float64 // virtual time the flow was added
	lastSet   float64 // virtual time Remaining was last materialized
	active    bool
	inRun     bool // scratch: member of the current Filler run
	// stalled marks a flow detached from the fabric by link failure with
	// no live alternate path: it transmits nothing (allocators rate it 0)
	// until a restore lets the Engine re-attach it.
	stalled bool
	pathPos []int32 // pathPos[k] = this flow's index within linkFlows[Path[k]]
}

// Stalled reports whether the flow is parked without a live path after a
// failure (it holds zero rate until the Engine re-attaches it).
func (f *Flow) Stalled() bool { return f.stalled }

// RemainingAt projects the flow's residual bits at virtual time t,
// assuming its current rate has been in force since lastSet. Allocators
// whose decisions depend on residual size (Homa's bands, Sincronia's
// coflow demands) read this instead of Remaining.
func (f *Flow) RemainingAt(t float64) float64 {
	if f.Rate <= 0 || t <= f.lastSet {
		return f.Remaining
	}
	r := f.Remaining - f.Rate*(t-f.lastSet)
	if r < 0 {
		return 0
	}
	return r
}

// Network is the dynamic state layered over a static topology: the set of
// active flows, per-link flow indexes and capacity overrides (used by the
// profiler's NIC throttling).
type Network struct {
	top       *topology.Topology
	flows     []Flow
	free      []FlowID
	linkFlows [][]FlowID                   // linkFlows[link] = active flows crossing it
	capEff    []float64                    // effective capacity per link (overrides applied)
	routes    map[uint64][]topology.LinkID // (src,dst) → path memo, shared read-only
	// routeEpoch is the topology liveness epoch the memo was filled under;
	// any failure or restore invalidates every memoized path wholesale.
	routeEpoch uint64
	active     int
	now        float64 // virtual time, advanced by the Engine

	// Pod-coupling bookkeeping for the sharded engine's lookahead
	// windows. part is the topology's static partition view; coupled[p]
	// counts the attached flows whose path both crosses a partition cut
	// and touches partition p. A partition with zero coupled flows shares
	// no link with any flow of another partition, which is exactly the
	// isolation the lookahead horizon needs.
	// partition() seeds the counters from the flows already attached at
	// first use (SetShards can arrive mid-run); attach/detach maintain
	// them incrementally from then on.
	part    *topology.Partition
	coupled []int32
}

// NewNetwork creates an empty network over the topology.
func NewNetwork(top *topology.Topology) *Network {
	links := top.Links()
	capEff := make([]float64, len(links))
	for i := range links {
		capEff[i] = links[i].Capacity
	}
	return &Network{
		top:       top,
		linkFlows: make([][]FlowID, len(links)),
		capEff:    capEff,
		routes:    map[uint64][]topology.LinkID{},
	}
}

// Topology returns the underlying static topology.
func (n *Network) Topology() *topology.Topology { return n.top }

// partition returns the topology's partition view, seeding the
// pod-coupling counters from every currently attached flow on first use.
func (n *Network) partition() *topology.Partition {
	if n.part == nil {
		n.part = n.top.Partition()
		n.coupled = make([]int32, n.part.NumParts())
		for i := range n.flows {
			f := &n.flows[i]
			if f.active {
				n.noteCoupling(f, +1)
			}
		}
	}
	return n.part
}

// noteCoupling adjusts the pod-coupling counters for one attached flow.
// A flow couples pods only when its path crosses a partition cut; then
// every partition it touches — via its endpoints or any on-path link —
// is coupled to flows outside that partition and counts the flow. The
// counters are a no-op until partition() has run (coupled == nil), so
// engines that never shard pay nothing but the nil check.
func (n *Network) noteCoupling(f *Flow, delta int32) {
	if n.coupled == nil {
		return
	}
	cut := false
	for _, l := range f.Path {
		if n.part.IsCut(l) {
			cut = true
			break
		}
	}
	if !cut {
		return
	}
	// Paths are a handful of links; dedup the touched partitions with a
	// tiny fixed-size scan instead of a map.
	var touched [10]int32
	nt := 0
	add := func(p int32) {
		if p < 0 {
			return // spine layer owns no shard
		}
		for i := 0; i < nt; i++ {
			if touched[i] == p {
				return
			}
		}
		if nt < len(touched) {
			touched[nt] = p
			nt++
		}
	}
	add(n.part.OfNode(f.Src))
	add(n.part.OfNode(f.Dst))
	for _, l := range f.Path {
		add(n.part.OfLink(l))
	}
	for i := 0; i < nt; i++ {
		n.coupled[touched[i]] += delta
	}
}

// podCoupled reports whether partition p currently has any attached flow
// coupling it to another partition. Valid only after partition().
func (n *Network) podCoupled(p int32) bool {
	if p < 0 || int(p) >= len(n.coupled) {
		return false
	}
	return n.coupled[p] != 0
}

// Now returns the current virtual time as last advanced by the Engine
// (zero for networks driven directly in tests). Allocators combine it
// with Flow.RemainingAt to observe residual sizes.
func (n *Network) Now() float64 { return n.now }

// Errors returned by flow operations.
var (
	ErrBadSize     = errors.New("netsim: flow size must be positive")
	ErrUnknownFlow = errors.New("netsim: unknown or inactive flow")
)

// FlowSpec describes a flow to add.
type FlowSpec struct {
	Src, Dst topology.NodeID
	Bits     float64
	App      AppID
	PL       int
	// Mult aggregates parallel connections between the same endpoints
	// into one simulated flow that receives Mult fair shares (0 → 1).
	Mult   int
	Coflow CoflowID
}

// AddFlow routes and activates a flow, returning its ID. Flows between a
// host and itself never touch the network and are modeled with an empty
// path (the Engine completes them at local-memory speed).
func (n *Network) AddFlow(now float64, spec FlowSpec) (FlowID, error) {
	if spec.Bits <= 0 {
		return 0, fmt.Errorf("%w: %g", ErrBadSize, spec.Bits)
	}
	path, err := n.routeLive(spec.Src, spec.Dst)
	stalled := false
	if err != nil {
		// Under churn a flow may arrive while its only path is down;
		// admit it stalled (zero rate) so workloads survive the outage
		// and the Engine resumes it when a link comes back.
		if errors.Is(err, topology.ErrNoRoute) && n.top.NumDown() > 0 {
			path, stalled = nil, true
		} else {
			return 0, err
		}
	}
	var id FlowID
	if len(n.free) > 0 {
		id = n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
	} else {
		id = FlowID(len(n.flows))
		n.flows = append(n.flows, Flow{})
	}
	mult := spec.Mult
	if mult <= 0 {
		mult = 1
	}
	pathPos := n.flows[id].pathPos[:0] // recycle the slot's index storage
	n.flows[id] = Flow{
		ID: id, Src: spec.Src, Dst: spec.Dst, Path: path,
		Size: spec.Bits, Remaining: spec.Bits,
		App: spec.App, PL: spec.PL, Mult: mult, Coflow: spec.Coflow,
		Start: now, lastSet: now, active: true, stalled: stalled,
	}
	f := &n.flows[id]
	for _, l := range path {
		pathPos = append(pathPos, int32(len(n.linkFlows[l])))
		n.linkFlows[l] = append(n.linkFlows[l], id)
	}
	f.pathPos = pathPos
	n.noteCoupling(f, +1)
	n.active++
	return id, nil
}

// AddFlows admits a batch of flows atomically: either every spec is
// routed and activated (in order, returning their IDs) or none is. The
// Engine uses it to admit a job stage's whole shuffle fan-out under a
// single rate recomputation.
func (n *Network) AddFlows(now float64, specs []FlowSpec) ([]FlowID, error) {
	// Reserve the batch's new slots at once: slot by slot, a fresh
	// network admitting one large wave would allocate its flow table
	// several times over while doubling it.
	if grow := len(specs) - len(n.free); grow > 0 {
		n.flows = slices.Grow(n.flows, grow)
	}
	ids := make([]FlowID, 0, len(specs))
	for _, spec := range specs {
		id, err := n.AddFlow(now, spec)
		if err != nil {
			for _, prev := range ids {
				n.RemoveFlow(prev)
			}
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// RemoveFlow deactivates a flow (on completion or cancellation). Each
// link's flow list is updated by swap-remove in O(1) using the per-flow
// position index, so removal costs O(path length) regardless of how many
// flows share the links.
func (n *Network) RemoveFlow(id FlowID) error {
	f, err := n.flow(id)
	if err != nil {
		return err
	}
	n.detach(f, id)
	f.active = false
	f.stalled = false
	n.free = append(n.free, id)
	n.active--
	return nil
}

// finishRemoved completes the removal of a flow that was already
// detached: deactivation, FlowID recycling, the active count. The
// sharded engine's lookahead windows detach completed flows inside
// concurrent per-shard phases (each shard owns its pod's links) but
// must recycle FlowIDs in the globally merged completion order to stay
// bit-for-bit reproducible, so the free-list push is deferred to the
// coordinator's apply phase.
func (n *Network) finishRemoved(id FlowID) {
	f := &n.flows[id]
	f.active = false
	f.stalled = false
	n.free = append(n.free, id)
	n.active--
}

// routeLive returns a path over live links only, memoizing successes. The
// memo is valid for a single topology liveness epoch: any FailLink/Restore
// bumps the epoch and the next lookup drops every cached path wholesale.
func (n *Network) routeLive(src, dst topology.NodeID) ([]topology.LinkID, error) {
	if ep := n.top.Epoch(); ep != n.routeEpoch {
		clear(n.routes)
		n.routeEpoch = ep
	}
	rkey := uint64(uint32(src))<<32 | uint64(uint32(dst))
	if path, ok := n.routes[rkey]; ok {
		return path, nil
	}
	path, err := n.top.Route(src, dst)
	if err != nil {
		return nil, err
	}
	n.routes[rkey] = path
	return path, nil
}

// detach removes the flow from every link it occupies (swap-remove in
// O(path length)) and clears its path. The flow stays active; the caller
// either deactivates it (RemoveFlow) or re-attaches it on a new path.
func (n *Network) detach(f *Flow, id FlowID) {
	n.noteCoupling(f, -1)
	for k, l := range f.Path {
		fs := n.linkFlows[l]
		i := int(f.pathPos[k])
		last := len(fs) - 1
		moved := fs[last]
		fs[i] = moved
		n.linkFlows[l] = fs[:last]
		if moved != id {
			// Repoint the moved flow's index entry for this link.
			mf := &n.flows[moved]
			for kk, ml := range mf.Path {
				if ml == l && int(mf.pathPos[kk]) == last {
					mf.pathPos[kk] = int32(i)
					break
				}
			}
		}
	}
	f.Path = nil
	f.pathPos = f.pathPos[:0]
}

// attach places an already-active flow on a new path, registering it on
// every link. Used by the Engine to reroute or resume flows after topology
// changes.
func (n *Network) attach(f *Flow, id FlowID, path []topology.LinkID) {
	pathPos := f.pathPos[:0]
	for _, l := range path {
		pathPos = append(pathPos, int32(len(n.linkFlows[l])))
		n.linkFlows[l] = append(n.linkFlows[l], id)
	}
	f.Path = path
	f.pathPos = pathPos
	n.noteCoupling(f, +1)
}

func (n *Network) flow(id FlowID) (*Flow, error) {
	if int(id) < 0 || int(id) >= len(n.flows) || !n.flows[id].active {
		return nil, fmt.Errorf("%w: %d", ErrUnknownFlow, id)
	}
	return &n.flows[id], nil
}

// Flow returns a pointer to an active flow. The pointer is valid until
// the flow is removed.
func (n *Network) Flow(id FlowID) (*Flow, error) { return n.flow(id) }

// NumActive returns the number of active flows.
func (n *Network) NumActive() int { return n.active }

// ForEachActive calls fn for every active flow.
func (n *Network) ForEachActive(fn func(*Flow)) {
	for i := range n.flows {
		if n.flows[i].active {
			fn(&n.flows[i])
		}
	}
}

// ActiveIDs returns the IDs of all active flows (freshly allocated), in
// ascending order.
func (n *Network) ActiveIDs() []FlowID {
	return n.ActiveInto(make([]FlowID, 0, n.active))
}

// ActiveInto appends the IDs of all active flows to buf in ascending
// order and returns it — the allocation-free variant of ActiveIDs for
// hot paths that reuse scratch.
func (n *Network) ActiveInto(buf []FlowID) []FlowID {
	for i := range n.flows {
		if n.flows[i].active {
			buf = append(buf, FlowID(i))
		}
	}
	return buf
}

// FlowsOn returns the active flows crossing a link. The slice is owned by
// the Network; callers must not mutate it.
func (n *Network) FlowsOn(l topology.LinkID) []FlowID { return n.linkFlows[l] }

// Capacity returns the effective capacity of a link, honoring overrides.
func (n *Network) Capacity(l topology.LinkID) float64 {
	if int(l) < 0 || int(l) >= len(n.capEff) {
		return 0
	}
	return n.capEff[l]
}

// SetCapacityOverride caps a link at the given bits/sec (the profiler's
// token-bucket NIC throttle). A non-positive value returns an error.
func (n *Network) SetCapacityOverride(l topology.LinkID, bps float64) error {
	if bps <= 0 {
		return fmt.Errorf("netsim: capacity override must be positive, got %g", bps)
	}
	if int(l) < 0 || int(l) >= len(n.capEff) {
		return fmt.Errorf("netsim: unknown link %d", l)
	}
	n.capEff[l] = bps
	return nil
}

// ClearCapacityOverride restores a link's native capacity.
func (n *Network) ClearCapacityOverride(l topology.LinkID) {
	if lk, err := n.top.Link(l); err == nil {
		n.capEff[l] = lk.Capacity
	}
}

// ThrottleHost caps both directions of a host's access link to fraction
// of their native capacity — the profiler's "limit the bandwidth of NICs
// of all nodes to a certain percentage of link capacity" (§4.1).
func (n *Network) ThrottleHost(h topology.NodeID, fraction float64) error {
	if fraction <= 0 || fraction > 1 {
		return fmt.Errorf("netsim: throttle fraction %g out of (0,1]", fraction)
	}
	node, err := n.top.Node(h)
	if err != nil {
		return err
	}
	if node.Kind != topology.Host {
		return fmt.Errorf("netsim: node %d is not a host", h)
	}
	for _, up := range n.top.OutLinks(h) {
		lk, _ := n.top.Link(up)
		if err := n.SetCapacityOverride(up, lk.Capacity*fraction); err != nil {
			return err
		}
		// The reverse direction: the peer's link back to the host.
		for _, down := range n.top.OutLinks(lk.To) {
			dl, _ := n.top.Link(down)
			if dl.To == h {
				if err := n.SetCapacityOverride(down, dl.Capacity*fraction); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// UnthrottleHost removes the overrides installed by ThrottleHost.
func (n *Network) UnthrottleHost(h topology.NodeID) {
	for _, up := range n.top.OutLinks(h) {
		n.ClearCapacityOverride(up)
		lk, _ := n.top.Link(up)
		for _, down := range n.top.OutLinks(lk.To) {
			dl, _ := n.top.Link(down)
			if dl.To == h {
				n.ClearCapacityOverride(down)
			}
		}
	}
}

// LinkUtilization returns, for a link, the fraction of its effective
// capacity consumed by current flow rates (post-allocation).
func (n *Network) LinkUtilization(l topology.LinkID) float64 {
	c := n.Capacity(l)
	if c <= 0 {
		return 0
	}
	sum := 0.0
	for _, fid := range n.linkFlows[l] {
		sum += n.flows[fid].Rate
	}
	return math.Min(sum/c, 1)
}
