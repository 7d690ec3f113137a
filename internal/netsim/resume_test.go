package netsim

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"saba/internal/telemetry"
	"saba/internal/topology"
)

// resumeStats counts what the checked allocations exercised, across an
// allocator and its shard clones.
type resumeStats struct {
	calls   atomic.Int64 // checked AllocateScoped calls with flows
	resumed atomic.Int64 // calls that kept at least one flow
	partial atomic.Int64 // resumed calls that also re-filled flows
	unions  atomic.Int64 // calls spanning more than one component
	fails   atomic.Int64
	windows atomic.Int64 // completions retired in lookahead windows
}

// resumeChecker runs IdealMaxMin's AllocateScoped, then fills the same
// flows from zero on a copy of the network and demands bit-identical
// rates, freeze residuals and freeze order. It is not shardable, so the
// engine hands it the union of the dirty components; shardableChecker
// adds clones.
type resumeChecker struct {
	t  *testing.T
	a  *IdealMaxMin
	st *resumeStats
}

type shardableChecker struct{ resumeChecker }

func (c resumeChecker) Name() string { return c.a.Name() }

func (c resumeChecker) Allocate(net *Network) { c.a.Allocate(net) }

func (c resumeChecker) AllocateScoped(net *Network, ids []FlowID) bool {
	d := resumeLevel(net, ids)
	kept, refill := 0, 0
	for _, id := range ids {
		if f := &net.flows[id]; f.active && len(f.Path) > 0 {
			if f.fround < d {
				kept++
			} else {
				refill++
			}
		}
	}
	c.a.AllocateScoped(net, ids)
	if len(ids) == 0 {
		return true
	}
	c.st.calls.Add(1)
	if kept > 0 {
		c.st.resumed.Add(1)
		if refill > 0 {
			c.st.partial.Add(1)
		}
	}
	ref := copyFlows(net, ids)
	NewIdealMaxMin(ref).Allocate(ref)
	comps := componentsOf(net, ids)
	if len(comps) > 1 {
		c.st.unions.Add(1)
	}
	if c.st.fails.Load() < 5 && !sameFill(c.t, net, ref, ids, comps, d) {
		c.st.fails.Add(1)
	}
	return true
}

func (c shardableChecker) ShardClone() Allocator {
	return shardableChecker{resumeChecker{c.t, c.a.ShardClone().(*IdealMaxMin), c.st}}
}

// copyFlows returns a network over the same topology and capacities
// holding only the flows of ids, in the same slots and in the same
// per-link order. It reads nothing outside ids and their links, so it is
// safe beside shard clones allocating other components.
func copyFlows(net *Network, ids []FlowID) *Network {
	ref := NewNetwork(net.top)
	copy(ref.capEff, net.capEff)
	ref.flows = make([]Flow, len(net.flows))
	for _, id := range ids {
		f := net.flows[id]
		if !f.active {
			continue
		}
		f.pathPos = slices.Clone(f.pathPos)
		f.capAfter = nil
		f.fseq, f.fround, f.Rate = 0, 0, -1
		ref.flows[id] = f
		ref.active++
		for _, l := range f.Path {
			if ref.linkFlows[l] == nil {
				ref.linkFlows[l] = slices.Clone(net.linkFlows[l])
			}
		}
	}
	return ref
}

// componentsOf splits the pathful flows of ids into link-connected
// components, each in ascending order.
func componentsOf(net *Network, ids []FlowID) [][]FlowID {
	parent := map[FlowID]FlowID{}
	var find func(FlowID) FlowID
	find = func(x FlowID) FlowID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	owner := map[topology.LinkID]FlowID{}
	for _, id := range ids {
		f := &net.flows[id]
		if !f.active || len(f.Path) == 0 {
			continue
		}
		parent[id] = id
		for _, l := range f.Path {
			if o, ok := owner[l]; ok {
				parent[find(id)] = find(o)
			} else {
				owner[l] = id
			}
		}
	}
	byRoot := map[FlowID][]FlowID{}
	var roots []FlowID
	for _, id := range ids {
		if _, ok := parent[id]; !ok {
			continue
		}
		r := find(id)
		if byRoot[r] == nil {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], id)
	}
	comps := make([][]FlowID, len(roots))
	for i, r := range roots {
		comps[i] = byRoot[r]
	}
	return comps
}

// sameFill compares the allocation of ids on net with the fill from zero
// on ref: every rate and freeze residual bit for bit, and within each
// component the same freeze order (flows ranked by fseq) cut into the
// same rounds (runs of equal fround). Ranks are compared per component:
// components fill independently, and a resumed fill keeps the freeze
// numbers of an earlier fill for its kept flows.
func sameFill(t *testing.T, net, ref *Network, ids []FlowID, comps [][]FlowID, d int64) bool {
	t.Helper()
	for _, id := range ids {
		f, g := &net.flows[id], &ref.flows[id]
		if !f.active {
			continue
		}
		if math.Float64bits(f.Rate) != math.Float64bits(g.Rate) {
			t.Errorf("flow %d (mult %d, %d hops, stalled %v, resume at %d): rate %.17g, from zero %.17g",
				id, f.Mult, len(f.Path), f.stalled, d, f.Rate, g.Rate)
			return false
		}
		if len(f.Path) == 0 {
			continue
		}
		if f.fseq == 0 {
			t.Errorf("flow %d holds no freeze record after a recording fill", id)
			return false
		}
		for k := range f.Path {
			if math.Float64bits(f.capAfter[k]) != math.Float64bits(g.capAfter[k]) {
				t.Errorf("flow %d hop %d (resume at %d): residual after freeze %.17g, from zero %.17g",
					id, k, d, f.capAfter[k], g.capAfter[k])
				return false
			}
		}
	}
	for _, comp := range comps {
		got, want := freezeOrder(net, comp), freezeOrder(ref, comp)
		if !slices.Equal(got, want) {
			t.Errorf("component of %d flows (resume at %d): freeze order %v, from zero %v", len(comp), d, got, want)
			return false
		}
	}
	return true
}

// freezeOrder lists comp's flows by freeze number, with -1 between
// rounds.
func freezeOrder(net *Network, comp []FlowID) []FlowID {
	byFseq := slices.Clone(comp)
	slices.SortFunc(byFseq, func(a, b FlowID) int {
		fa, fb := net.flows[a].fseq, net.flows[b].fseq
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	})
	var out []FlowID
	for i, id := range byFseq {
		if i > 0 && net.flows[id].fround != net.flows[byFseq[i-1]].fround {
			out = append(out, -1)
		}
		out = append(out, id)
	}
	return out
}

// TestResumeMatchesScratch drives IdealMaxMin through the engine on
// random multi-tier fabrics with uniform capacities and symmetric flows,
// so ties and simultaneous completions are common: admission waves, then
// departures by completion and CancelFlow, flows with Mult > 1, loopback
// flows, flows stalled by a failed access link and rerouted off a failed
// core cable. Every scoped allocation — the union of several components
// on one allocator, per-pod shard clones, and lookahead windows — must
// match a fill from zero of the same flows bit for bit, and so must the
// records the next resume starts from.
func TestResumeMatchesScratch(t *testing.T) {
	modes := []struct {
		name      string
		shards    int
		shardable bool
	}{
		{"union", 1, false},
		{"one-shard", 1, true},
		{"per-pod", -1, true},
	}
	for _, m := range modes {
		st := &resumeStats{}
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			leaves := 1 + rng.Intn(2)
			top, err := topology.NewSpineLeaf(topology.SpineLeafConfig{
				Pods: 2 + rng.Intn(2), ToRsPerPod: 1 + rng.Intn(2), LeavesPerPod: leaves,
				Spines: 2 * leaves, HostsPerToR: 2 + rng.Intn(3), Queues: 8, LinkCapacity: 1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			net := NewNetwork(top)
			c := resumeChecker{t, NewIdealMaxMin(net), st}
			var alloc Allocator = c
			if m.shardable {
				alloc = shardableChecker{c}
			}
			e := NewEngine(net, alloc)
			e.SetTelemetry(telemetry.NewRegistry())
			e.SetShards(m.shards)
			scheduleResumeScenario(t, e, rng)
			if err := e.Run(math.Inf(1)); err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			st.windows.Add(int64(e.tel.lookaheadEvents.Value()))
			if st.fails.Load() > 0 {
				t.Fatalf("%s seed %d: resumed fill differs from the fill from zero", m.name, seed)
			}
		}
		t.Logf("%s: %d checked calls, %d resumed (%d partly), %d over several components, %d window completions",
			m.name, st.calls.Load(), st.resumed.Load(), st.partial.Load(), st.unions.Load(), st.windows.Load())
		if st.resumed.Load() < 50 || st.partial.Load() < 25 {
			t.Errorf("%s: only %d resumed calls (%d partly); the scenario does not exercise the resume",
				m.name, st.resumed.Load(), st.partial.Load())
		}
		if m.name == "union" && st.unions.Load() < 10 {
			t.Errorf("union: only %d calls over several components", st.unions.Load())
		}
		if m.name == "per-pod" && st.windows.Load() < 10 {
			t.Errorf("per-pod: only %d completions in lookahead windows", st.windows.Load())
		}
	}
}

// scheduleResumeScenario schedules admission waves of equal-sized flows
// (every other wave pod-local; some loopback, some with Mult > 1),
// random cancellations, a core
// cable failure that reroutes flows and an access-link failure that
// stalls them until its restore.
func scheduleResumeScenario(t *testing.T, e *Engine, rng *rand.Rand) {
	top := e.net.top
	hs := top.Hosts()
	pods := map[int32][]topology.NodeID{}
	for _, h := range hs {
		p := e.net.partition().OfNode(h)
		pods[p] = append(pods[p], h)
	}
	for wave := 0; wave < 8; wave++ {
		specs := make([]FlowSpec, 4+rng.Intn(20))
		size := float64(1+rng.Intn(3)) * 1000
		for i := range specs {
			src := hs[rng.Intn(len(hs))]
			dst := hs[rng.Intn(len(hs))]
			if wave%2 == 1 { // pod-local waves open lookahead windows
				local := pods[e.net.partition().OfNode(src)]
				dst = local[rng.Intn(len(local))]
			}
			if rng.Intn(10) == 0 {
				dst = src
			}
			mult := 1
			if rng.Intn(4) == 0 {
				mult = 2 + rng.Intn(2)
			}
			specs[i] = FlowSpec{Src: src, Dst: dst, Bits: size, Mult: mult}
		}
		at := float64(wave) * 2.5
		must(t, e.At(at, func(e *Engine) {
			if _, err := e.AddFlows(specs, nil); err != nil {
				t.Error(err)
			}
		}))
		must(t, e.At(at+0.3+rng.Float64(), func(e *Engine) {
			ids := e.net.ActiveIDs()
			for k := rng.Intn(3); k > 0 && len(ids) > 0; k-- {
				i := rng.Intn(len(ids))
				must(t, e.CancelFlow(ids[i]))
				ids = slices.Delete(ids, i, i+1)
			}
		}))
	}
	cables := coreCables(top)
	cable := cables[rng.Intn(len(cables))]
	access := top.OutLinks(hs[rng.Intn(len(hs))])[0]
	must(t, e.At(3.1, func(e *Engine) { must(t, e.FailLinks(cable...)) }))
	must(t, e.At(6.2, func(e *Engine) { must(t, e.FailLink(access)) }))
	must(t, e.At(9.7, func(e *Engine) { must(t, e.RestoreLink(access)) }))
	must(t, e.At(12.4, func(e *Engine) { must(t, e.RestoreLinks(cable...)) }))
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Error(err)
	}
}
