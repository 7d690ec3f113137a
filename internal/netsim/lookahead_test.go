package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"saba/internal/telemetry"
	"saba/internal/topology"
)

// runPodLocal drives a seeded workload that stays overwhelmingly inside
// single pods — the shape lookahead windows exist for — plus one
// cross-pod flow mid-run so the coupling counters are seen to gate
// windows off and back on. full selects the full-recompute reference.
// Returns completion times in admission order.
func runPodLocal(t *testing.T, seed int64, shards int, full, pure bool, reg *telemetry.Registry, reshard bool) []float64 {
	t.Helper()
	top := diffFabric(t)
	part := top.Partition()
	net := NewNetwork(top)
	e := NewEngine(net, NewIdealMaxMin(net))
	e.SetTelemetry(reg)
	e.SetFullRecompute(full)
	e.SetShards(shards)
	e.SetPureCallbacks(pure)

	rng := rand.New(rand.NewSource(seed))
	podHosts := make([][]topology.NodeID, part.NumParts())
	for p := range podHosts {
		podHosts[p] = part.HostsIn(p)
	}

	var (
		done   []float64
		ids    []FlowID
		idxOf  = map[FlowID]int{}
		record = func(e *Engine, id FlowID) {
			done[idxOf[id]] = e.Now()
		}
	)
	admit := func(at float64, specs []FlowSpec) {
		if err := e.At(at, func(e *Engine) {
			newIDs, err := e.AddFlows(specs, record)
			if err != nil {
				panic(err)
			}
			for _, id := range newIDs {
				idxOf[id] = len(ids)
				ids = append(ids, id)
				done = append(done, -1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}

	const waves = 24
	for w := 0; w < waves; w++ {
		at := float64(w) * 0.25
		batch := 2 + rng.Intn(5)
		specs := make([]FlowSpec, batch)
		for i := range specs {
			hs := podHosts[rng.Intn(len(podHosts))]
			src := hs[rng.Intn(len(hs))]
			dst := hs[rng.Intn(len(hs))]
			for dst == src {
				dst = hs[rng.Intn(len(hs))]
			}
			specs[i] = FlowSpec{Src: src, Dst: dst, Bits: float64((1 + rng.Intn(4000)) * 64)}
		}
		admit(at, specs)
	}
	// One short cross-pod flow couples both pods for its lifetime:
	// windows must stop while it is attached and resume after it
	// completes (small enough to retire long before the run ends).
	admit(waves/3*0.25+0.01, []FlowSpec{{
		Src: podHosts[0][0], Dst: podHosts[1][0], Bits: 2e3,
	}})
	if reshard {
		for i, n := range []int{1, -1, 1} {
			n := n
			if err := e.At(0.8+0.9*float64(i), func(e *Engine) { e.SetShards(n) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	return done
}

// The lookahead gate: pod-local traffic must engage windows (several
// completions per barrier round) at one shard and at one shard per pod,
// and stay bit-for-bit identical to the full-recompute reference, which
// opens none. (The name predates the one-loop engine, when the reference
// was a separate serial event loop.)
func TestLookaheadPodLocalMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		refReg := telemetry.NewRegistry()
		want := runPodLocal(t, seed, 1, true, true, refReg, false)
		if rounds := refReg.Counter("netsim.lookahead_rounds").Value(); rounds != 0 {
			t.Fatalf("seed %d: the full-recompute reference ran %d lookahead rounds", seed, rounds)
		}
		for _, shards := range []int{1, -1} {
			reg := telemetry.NewRegistry()
			got := runPodLocal(t, seed, shards, false, true, reg, false)
			assertSameVector(t, fmt.Sprintf("pod-local shards=%d", shards), want, got)
			rounds := reg.Counter("netsim.lookahead_rounds").Value()
			events := reg.Counter("netsim.lookahead_completions").Value()
			if rounds == 0 {
				t.Fatalf("seed %d shards=%d: pod-local workload never entered a lookahead window", seed, shards)
			}
			if events <= rounds {
				t.Errorf("seed %d shards=%d: %d lookahead completions over %d rounds; windows should retire several per round",
					seed, shards, events, rounds)
			}
		}
	}
}

// The lookahead horizon must stop at the next completion of a shard that
// is not isolated. A cross-pod flow couples pods 0 and 1 and falls due in
// the middle of pod 2's completions, so pod 2's window has to halt short
// of it: completion times and callback order then match the
// full-recompute reference. A horizon that skips the coupled shards lets
// the window retire pod 2's flows past the cross-pod completion, and the
// clock refuses to step back to it.
func TestLookaheadHorizonStopsAtCoupledShard(t *testing.T) {
	run := func(full bool) (times []float64, order []int, rounds uint64) {
		top, err := topology.NewSpineLeaf(topology.SpineLeafConfig{
			Pods: 3, ToRsPerPod: 2, LeavesPerPod: 2, Spines: 2,
			HostsPerToR: 4, Queues: 8, LinkCapacity: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		part := top.Partition()
		net := NewNetwork(top)
		e := NewEngine(net, NewIdealMaxMin(net))
		reg := telemetry.NewRegistry()
		e.SetTelemetry(reg)
		e.SetFullRecompute(full)
		e.SetShards(-1)
		e.SetPureCallbacks(true)

		// Alone on its path the cross-pod flow finishes at 16.5 s. The
		// six pod-2 flows share one host uplink and finish at 6, 11, 15,
		// 18, 20 and 21 s.
		p2 := part.HostsIn(2)
		specs := []FlowSpec{{Src: part.HostsIn(0)[0], Dst: part.HostsIn(1)[0], Bits: 16.5e3}}
		for i := 1; i <= 6; i++ {
			specs = append(specs, FlowSpec{Src: p2[0], Dst: p2[i], Bits: float64(i) * 1e3})
		}
		idx := map[FlowID]int{}
		times = make([]float64, len(specs))
		record := func(e *Engine, id FlowID) {
			times[idx[id]] = e.Now()
			order = append(order, idx[id])
		}
		ids, err := e.AddFlows(specs, record)
		if err != nil {
			t.Fatal(err)
		}
		for k, id := range ids {
			idx[id] = k
		}
		if err := e.Run(math.Inf(1)); err != nil {
			t.Fatalf("full=%v: Run: %v", full, err)
		}
		return times, order, reg.Counter("netsim.lookahead_rounds").Value()
	}
	wantTimes, wantOrder, _ := run(true)
	gotTimes, gotOrder, rounds := run(false)
	assertSameVector(t, "completion times", wantTimes, gotTimes)
	if !slices.Equal(wantOrder, gotOrder) {
		t.Errorf("callback order %v, want %v", gotOrder, wantOrder)
	}
	if rounds == 0 {
		t.Error("pod 2 never entered a lookahead window")
	}
}

// Without the purity declaration, registered completion callbacks must
// keep lookahead off — and the result must still match the reference
// through the plain barrier path.
func TestLookaheadGatedOffByImpureCallbacks(t *testing.T) {
	refReg := telemetry.NewRegistry()
	shardReg := telemetry.NewRegistry()
	want := runPodLocal(t, 1, 1, true, false, refReg, false)
	got := runPodLocal(t, 1, -1, false, false, shardReg, false)
	assertSameVector(t, "impure", want, got)
	if rounds := shardReg.Counter("netsim.lookahead_rounds").Value(); rounds != 0 {
		t.Fatalf("lookahead ran %d rounds despite undeclared callbacks", rounds)
	}
}

// A completion callback declared pure that mutates the engine must
// panic, naming the method, wherever it fires: from a lookahead window
// (pod-local flows at one shard or per pod) or from a plain barrier
// round (the full-recompute reference opens no windows).
func TestLookaheadImpureCallbackPanics(t *testing.T) {
	for _, c := range []struct {
		shards int
		full   bool
	}{{1, false}, {-1, false}, {1, true}} {
		top := diffFabric(t)
		part := top.Partition()
		net := NewNetwork(top)
		e := NewEngine(net, NewIdealMaxMin(net))
		e.SetTelemetry(telemetry.NewRegistry())
		e.SetShards(c.shards)
		e.SetFullRecompute(c.full)
		e.SetPureCallbacks(true)
		impure := func(e *Engine, _ FlowID) {
			_ = e.After(1, func(*Engine) {})
		}
		for p := 0; p < part.NumParts(); p++ {
			hs := part.HostsIn(p)
			for i := 0; i < 6; i++ {
				spec := FlowSpec{Src: hs[0], Dst: hs[i+1], Bits: float64(i+1) * 1e3}
				if _, err := e.AddFlow(spec, impure); err != nil {
					t.Fatal(err)
				}
			}
		}
		msg := panicMessage(func() { _ = e.Run(math.Inf(1)) })
		if !strings.Contains(msg, "Engine.After called from a completion callback declared pure") {
			t.Errorf("shards=%d full=%v: got %q, want a panic naming Engine.After", c.shards, c.full, msg)
		}
	}
}

// Stress the persistent-worker runtime with real parallelism: windows,
// barrier rounds, and mid-run reshards (worker-pool teardown and
// rebuild) under GOMAXPROCS=4, checked bit-for-bit against the
// full-recompute reference. Run with -race in CI.
func TestLookaheadReshardStressParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for seed := int64(1); seed <= 2; seed++ {
		refReg := telemetry.NewRegistry()
		shardReg := telemetry.NewRegistry()
		want := runPodLocal(t, seed, 1, true, true, refReg, false)
		got := runPodLocal(t, seed, -1, false, true, shardReg, true)
		assertSameVector(t, "reshard stress", want, got)
	}
}

// Satellite regression: the per-shard flows_active and
// completion_heap_size gauges must drain to zero when their shards
// retire (SetShards(1)), and rebind and republish when the engine
// returns to one shard per pod.
func TestShardGaugesDrainOnRetire(t *testing.T) {
	top := diffFabric(t)
	part := top.Partition()
	net := NewNetwork(top)
	e := NewEngine(net, NewIdealMaxMin(net))
	reg := telemetry.NewRegistry()
	e.SetTelemetry(reg)
	for p := 0; p < part.NumParts(); p++ {
		hs := part.HostsIn(p)
		for i := 0; i < 3; i++ {
			if _, err := e.AddFlow(FlowSpec{Src: hs[i], Dst: hs[i+3], Bits: 1e9}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	gauge := func(name string, shard string) float64 {
		return reg.Gauge(telemetry.Label(name, "engine", e.engineID, "shard", shard)).Value()
	}
	shards := []string{"0", "1"} // diffFabric has two pods
	e.SetShards(-1)
	for _, shard := range shards {
		if got := gauge("netsim.flows_active", shard); got != 3 {
			t.Fatalf("per-pod: shard %s flows_active = %v, want 3", shard, got)
		}
	}
	// Project completions onto the shard heaps with one bounded step.
	stop := false
	if err := e.At(1e-6, func(*Engine) { stop = true }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(math.Inf(1), func() bool { return stop }); err != nil {
		t.Fatal(err)
	}
	for _, shard := range shards {
		if got := gauge("netsim.completion_heap_size", shard); got != 3 {
			t.Fatalf("per-pod: shard %s heap gauge = %v, want 3", shard, got)
		}
	}

	e.SetShards(1) // one shard: every per-shard gauge drains
	for _, shard := range shards {
		if got := gauge("netsim.flows_active", shard); got != 0 {
			t.Errorf("one shard: shard %s flows_active = %v, want 0", shard, got)
		}
		if got := gauge("netsim.completion_heap_size", shard); got != 0 {
			t.Errorf("one shard: shard %s heap gauge = %v, want 0", shard, got)
		}
	}

	e.SetShards(-1) // per pod again: the gauges rebind and republish
	for _, shard := range shards {
		if got := gauge("netsim.flows_active", shard); got != 3 {
			t.Errorf("per-pod again: shard %s flows_active = %v, want 3", shard, got)
		}
		if got := gauge("netsim.completion_heap_size", shard); got != 3 {
			t.Errorf("per-pod again: shard %s heap gauge = %v, want 3", shard, got)
		}
	}
}

// Satellite regression: splitDirty must be allocation-free at steady
// state — the scratch (component arrays, seen marks, stack) is grown
// once and reused for the run's remaining recomputes.
func TestSplitDirtySteadyStateAllocFree(t *testing.T) {
	top := diffFabric(t)
	net := NewNetwork(top)
	e := NewEngine(net, NewIdealMaxMin(net))
	e.SetTelemetry(telemetry.NewRegistry())
	e.SetShards(-1)
	hosts := top.Hosts()
	var paths [][]topology.LinkID
	for i := 0; i < 12; i++ {
		id, err := e.AddFlow(FlowSpec{Src: hosts[i], Dst: hosts[(i+2)%len(hosts)], Bits: 1e9}, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := net.Flow(id)
		paths = append(paths, f.Path)
	}
	seed := func() {
		e.seedLinks = e.seedLinks[:0]
		for _, p := range paths {
			e.seedLinks = append(e.seedLinks, p...)
		}
	}
	seed()
	e.splitDirty() // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		seed()
		e.splitDirty()
	})
	if allocs != 0 {
		t.Fatalf("splitDirty allocates %v times per call at steady state, want 0", allocs)
	}
}
