package netsim

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"saba/internal/telemetry"
	"saba/internal/topology"
)

// refComponents is an independent component walk over maps: each seed
// link, then each active seed flow, in order, opens a component unless an
// earlier one reached it, and a breadth-first search over links and the
// flows crossing them closes it. It returns every non-empty component
// sorted ascending and the set of links the search visited.
func refComponents(net *Network, links []topology.LinkID, flows []FlowID) ([][]FlowID, map[topology.LinkID]bool) {
	seenF := map[FlowID]bool{}
	seenL := map[topology.LinkID]bool{}
	var comps [][]FlowID
	bfs := func(comp []FlowID, queue []topology.LinkID) {
		for len(queue) > 0 {
			l := queue[0]
			queue = queue[1:]
			for _, fid := range net.FlowsOn(l) {
				if seenF[fid] {
					continue
				}
				seenF[fid] = true
				comp = append(comp, fid)
				for _, pl := range net.flows[fid].Path {
					if !seenL[pl] {
						seenL[pl] = true
						queue = append(queue, pl)
					}
				}
			}
		}
		if len(comp) > 0 {
			slices.Sort(comp)
			comps = append(comps, comp)
		}
	}
	for _, l := range links {
		if !seenL[l] {
			seenL[l] = true
			bfs(nil, []topology.LinkID{l})
		}
	}
	for _, id := range flows {
		f := &net.flows[id]
		if !f.active || seenF[id] {
			continue
		}
		seenF[id] = true
		var queue []topology.LinkID
		for _, l := range f.Path {
			if !seenL[l] {
				seenL[l] = true
				queue = append(queue, l)
			}
		}
		bfs([]FlowID{id}, queue)
	}
	return comps, seenL
}

// checkBitsClear fails when ascend left a bit set in the walk's bitset.
func checkBitsClear(t *testing.T, what string, w *scopeWalk) {
	t.Helper()
	for i, word := range w.bits {
		if word != 0 {
			t.Fatalf("%s: bitset word %d is %#x after the walk, want 0", what, i, word)
		}
	}
}

// TestScopeWalkAscend checks the walk's ascending emission. ascend must
// order random ID sets like slices.Sort; expand, over random multi-tier
// fabrics whose flow tables are thinned to leave IDs dense or sparse in
// their span, must emit each component equal to the sorted set an
// independent BFS finds from the same seeds, and record in links exactly
// the links it marked. Both of ascend's branches must run, and the
// bitset must be all zero after every call.
func TestScopeWalkAscend(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var w scopeWalk
	branches := map[string]int{} // "ascend"/"expand" × dense/sparse
	branch := func(part string, n int, lo, hi FlowID) {
		if n < 2 {
			return // nothing to order
		}
		if denseSpan(n, int(hi)>>6-int(lo)>>6+1) {
			branches[part+" dense"]++
		} else {
			branches[part+" sparse"]++
		}
	}

	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(200)
		spread := 1 + rng.Intn(1<<rng.Intn(16))
		base := rng.Intn(1 << 12)
		seen := map[FlowID]bool{}
		var ids []FlowID
		for len(ids) < n {
			id := FlowID(base + rng.Intn(n*spread))
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		want := slices.Clone(ids)
		slices.Sort(want)
		branch("ascend", n, want[0], want[n-1])
		w.ascend(ids)
		if !slices.Equal(ids, want) {
			t.Fatalf("ascend trial %d: got %v, want %v", trial, ids, want)
		}
		checkBitsClear(t, "ascend", &w)
	}

	for trial := 0; trial < 60; trial++ {
		leaves := 1 + rng.Intn(3)
		top, err := topology.NewSpineLeaf(topology.SpineLeafConfig{
			Pods: 1 + rng.Intn(4), ToRsPerPod: 1 + rng.Intn(3), LeavesPerPod: leaves,
			Spines: leaves * (1 + rng.Intn(2)), HostsPerToR: 1 + rng.Intn(4), Queues: 8, LinkCapacity: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		net := NewNetwork(top)
		hs := top.Hosts()
		var live []FlowID
		for k := 200 + rng.Intn(3000); k > 0; k-- {
			id, err := net.AddFlow(0, FlowSpec{Src: hs[rng.Intn(len(hs))], Dst: hs[rng.Intn(len(hs))], Bits: 1e6})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		// Thin the table: keeping a small share leaves a few flows spread
		// over a wide ID span, the sparse branch.
		keep := []float64{0.003, 0.02, 0.2, 1}[rng.Intn(4)]
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		cut := int(float64(len(live)) * keep)
		removed := live[cut:]
		for _, id := range removed {
			if err := net.RemoveFlow(id); err != nil {
				t.Fatal(err)
			}
		}
		live = live[:cut]

		flowSeen := make([]int64, len(net.flows))
		linkSeen := make([]int64, len(top.Links()))
		for round := 0; round < 4; round++ {
			var seedLinks []topology.LinkID
			for k := rng.Intn(6); k > 0; k-- {
				seedLinks = append(seedLinks, topology.LinkID(rng.Intn(len(linkSeen))))
			}
			var seedFlows []FlowID
			for k := rng.Intn(4); k > 0 && len(live) > 0; k-- {
				seedFlows = append(seedFlows, live[rng.Intn(len(live))])
			}
			if len(removed) > 0 && rng.Intn(8) == 0 {
				seedFlows = append(seedFlows, removed[0]) // inactive: skipped
			}
			w.expand(net, flowSeen, linkSeen, markEpoch.Add(1), seedLinks, seedFlows)
			wantComps, wantLinks := refComponents(net, seedLinks, seedFlows)
			if got := len(w.off) - 1; got != len(wantComps) {
				t.Fatalf("trial %d round %d: %d components, want %d", trial, round, got, len(wantComps))
			}
			for c, want := range wantComps {
				comp := w.comp(c)
				branch("expand", len(want), want[0], want[len(want)-1])
				if !slices.Equal(comp, want) {
					t.Fatalf("trial %d round %d component %d: got %v, want %v", trial, round, c, comp, want)
				}
			}
			checkBitsClear(t, "expand", &w)
			gotLinks := map[topology.LinkID]bool{}
			for _, l := range w.links {
				if gotLinks[l] {
					t.Fatalf("trial %d round %d: link %d recorded twice", trial, round, l)
				}
				gotLinks[l] = true
			}
			if len(gotLinks) != len(wantLinks) {
				t.Fatalf("trial %d round %d: walk recorded %d links, the BFS visited %d", trial, round, len(gotLinks), len(wantLinks))
			}
			for l := range wantLinks {
				if !gotLinks[l] {
					t.Fatalf("trial %d round %d: link %d visited but not recorded", trial, round, l)
				}
			}
		}
	}
	for _, b := range []string{"ascend dense", "ascend sparse", "expand dense", "expand sparse"} {
		if branches[b] == 0 {
			t.Errorf("no %s component: want both branches under both callers (%v)", b, branches)
		}
	}
}

// recordingAlloc records the flows each recompute hands its allocator:
// the ids of every accepted AllocateScoped call, or the whole active set
// on Allocate. Calls made during one recompute (one per component on the
// sharded path, from concurrent clones) share the engine's recompute
// count, so a new count starts a new record.
type recordingAlloc struct {
	Allocator
	rec *allocRecord
}

// allocRecord is the record the allocator and its clones share; gen is
// the recompute count the ids were noted under.
type allocRecord struct {
	mu  sync.Mutex
	e   *Engine
	gen uint64
	ids []FlowID
}

func (r *allocRecord) note(ids []FlowID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.e.tel.rateRecomputes.Value(); g != r.gen {
		r.gen, r.ids = g, r.ids[:0]
	}
	r.ids = append(r.ids, ids...)
}

func (a recordingAlloc) Allocate(net *Network) {
	a.rec.note(net.ActiveIDs())
	a.Allocator.Allocate(net)
}

func (a recordingAlloc) AllocateScoped(net *Network, ids []FlowID) bool {
	ok := a.Allocator.AllocateScoped(net, ids)
	if ok {
		a.rec.note(ids)
	}
	return ok
}

// shardableRecording is recordingAlloc over a ShardableAllocator, with
// clones that record into the same record.
type shardableRecording struct{ recordingAlloc }

func (a shardableRecording) ShardClone() Allocator {
	c := a.Allocator.(ShardableAllocator).ShardClone()
	if c == nil {
		return nil
	}
	return shardableRecording{recordingAlloc{c, a.rec}}
}

// bruteUtilization is the port-utilization pass the gauges summarize:
// every link that one of the allocated flows crosses and some flow
// occupies, with utilization min(Σ rates / capacity, 1).
func bruteUtilization(net *Network, ids []FlowID) (max, mean float64) {
	seen := map[topology.LinkID]bool{}
	sum := 0.0
	for _, id := range ids {
		f := &net.flows[id]
		if !f.active {
			continue
		}
		for _, l := range f.Path {
			if seen[l] || len(net.FlowsOn(l)) == 0 {
				continue
			}
			seen[l] = true
			u := 0.0
			if c := net.Capacity(l); c > 0 {
				r := 0.0
				for _, fid := range net.FlowsOn(l) {
					r += net.flows[fid].Rate
				}
				u = math.Min(r/c, 1)
			}
			sum += u
			max = math.Max(max, u)
		}
	}
	if len(seen) > 0 {
		mean = sum / float64(len(seen))
	}
	return max, mean
}

// The port-utilization gauges must summarize exactly the links the last
// recompute allocated, on every recompute path: scoped components on
// per-pod shards, the scoped union (an allocator without shard clones),
// SetFullRecompute(true), and a decliner that widens to the full active
// set (Homa). After every recompute, port_util_max must equal a brute-
// force pass over the allocated flows' links exactly and port_util_mean
// within 1e-12.
func TestUtilizationGaugesEveryPath(t *testing.T) {
	paths := []struct {
		name      string
		full      bool
		shardable bool
		alloc     func(*Network) Allocator
	}{
		{"scoped", false, true, func(n *Network) Allocator { return NewIdealMaxMin(n) }},
		{"scoped-union", false, false, func(n *Network) Allocator { return NewIdealMaxMin(n) }},
		{"full", true, true, func(n *Network) Allocator { return NewIdealMaxMin(n) }},
		{"widen-homa", false, false, func(n *Network) Allocator { return NewHoma(n, nil) }},
	}
	for _, p := range paths {
		for seed := int64(1); seed <= 6; seed++ {
			top, err := topology.NewSpineLeaf(topology.SpineLeafConfig{
				Pods: 3, ToRsPerPod: 2, LeavesPerPod: 2, Spines: 4,
				HostsPerToR: 3, Queues: 8, LinkCapacity: 1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			net := NewNetwork(top)
			rec := &allocRecord{gen: math.MaxUint64} // nothing noted yet
			var alloc Allocator = recordingAlloc{p.alloc(net), rec}
			if p.shardable {
				alloc = shardableRecording{alloc.(recordingAlloc)}
			}
			e := NewEngine(net, alloc)
			rec.e = e
			e.SetTelemetry(telemetry.NewRegistry())
			e.SetFullRecompute(p.full)
			e.SetShards(-1)
			gMax, gMean := e.tel.utilGauges(alloc.Name())

			checks := 0
			e.OnAdvance = func(e *Engine, _, _ float64) {
				var ids []FlowID
				if rec.gen+1 == e.tel.rateRecomputes.Value() {
					ids = rec.ids // otherwise the last recompute allocated nothing
				}
				wantMax, wantMean := bruteUtilization(e.net, ids)
				if got := gMax.Value(); got != wantMax {
					t.Fatalf("%s seed %d t=%g: port_util_max %v, brute force %v", p.name, seed, e.Now(), got, wantMax)
				}
				if got := gMean.Value(); math.Abs(got-wantMean) > 1e-12 {
					t.Fatalf("%s seed %d t=%g: port_util_mean %v, brute force %v", p.name, seed, e.Now(), got, wantMean)
				}
				checks++
			}

			rng := rand.New(rand.NewSource(seed))
			hs := top.Hosts()
			for wave := 0; wave < 8; wave++ {
				specs := make([]FlowSpec, 1+rng.Intn(12))
				for i := range specs {
					specs[i] = FlowSpec{
						Src: hs[rng.Intn(len(hs))], Dst: hs[rng.Intn(len(hs))],
						Bits: float64(1+rng.Intn(50)) * 1e3, PL: rng.Intn(4),
					}
				}
				if err := e.At(float64(wave)*7.5, func(e *Engine) {
					if _, err := e.AddFlows(specs, nil); err != nil {
						t.Error(err)
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Run(math.Inf(1)); err != nil {
				t.Fatalf("%s seed %d: %v", p.name, seed, err)
			}
			if checks < 10 {
				t.Fatalf("%s seed %d: only %d checks", p.name, seed, checks)
			}
			if scoped := e.tel.scopedRecomputes.Value() > 0; scoped == (p.full || p.name == "widen-homa") {
				t.Fatalf("%s seed %d: scoped recomputes %d; the run took the wrong path", p.name, seed, e.tel.scopedRecomputes.Value())
			}
		}
	}
}
