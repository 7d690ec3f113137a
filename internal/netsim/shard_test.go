package netsim

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"saba/internal/telemetry"
	"saba/internal/topology"
)

// The sharded differential gate: for every allocator, the event loop at
// one shard and at one shard per pod (per-pod heaps, allocator clones,
// barrier-coordinated due collection, lookahead windows) must produce
// bit-for-bit the completion times of the full-recompute reference — one
// shard, SetFullRecompute(true): no scoping, no clones, no lookahead
// windows — with and without a link-flap schedule.

func assertSameVector(t *testing.T, ctx string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: admission counts differ: %d vs %d", ctx, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Errorf("%s admission %d: completion %v (reference) vs %v; diff %g",
				ctx, i, want[i], got[i], got[i]-want[i])
		}
	}
}

// The name predates the one-loop engine, when the reference was a
// separate serial event loop.
func TestDifferentialShardedMatchesSerial(t *testing.T) {
	allocators := []string{"ideal-maxmin", "fecn", "wfq", "homa", "sincronia", "decentral"}
	shardable := map[string]bool{"ideal-maxmin": true, "fecn": true, "wfq": true, "decentral": true}
	for _, name := range allocators {
		name := name
		t.Run(name, func(t *testing.T) {
			scopedEngaged := false
			for seed := int64(1); seed <= 3; seed++ {
				refReg := telemetry.NewRegistry()
				oneReg := telemetry.NewRegistry()
				shardReg := telemetry.NewRegistry()
				want := runDifferentialScenario(t, name, seed, true, refReg, false, 1)
				one := runDifferentialScenario(t, name, seed, false, oneReg, false, 1)
				got := runDifferentialScenario(t, name, seed, false, shardReg, false, -1)
				assertSameVector(t, name+" shards=1", want, one)
				assertSameVector(t, name+" shards=per-pod", want, got)
				if refReg.Counter("netsim.scoped_recomputes").Value() != 0 {
					t.Errorf("seed %d: the full-recompute reference ran scoped recomputes", seed)
				}
				if shardReg.Counter("netsim.scoped_recomputes").Value() > 0 {
					scopedEngaged = true
				}
			}
			if shardable[name] && !scopedEngaged {
				t.Errorf("%s: sharded mode never ran a scoped recompute", name)
			}
			if !shardable[name] && scopedEngaged {
				t.Errorf("%s: non-shardable allocator reported scoped recomputes", name)
			}
		})
	}
}

func TestDifferentialShardedWithFlaps(t *testing.T) {
	allocators := []string{"ideal-maxmin", "fecn", "wfq", "homa", "sincronia", "decentral"}
	for _, name := range allocators {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				refReg := telemetry.NewRegistry()
				oneReg := telemetry.NewRegistry()
				shardReg := telemetry.NewRegistry()
				want := runDifferentialScenario(t, name, seed, true, refReg, true, 1)
				one := runDifferentialScenario(t, name, seed, false, oneReg, true, 1)
				got := runDifferentialScenario(t, name, seed, false, shardReg, true, -1)
				assertSameVector(t, name+" shards=1", want, one)
				assertSameVector(t, name+" shards=per-pod", want, got)
				if shardReg.Counter("netsim.link_failures").Value() == 0 {
					t.Errorf("seed %d: flap schedule failed no links", seed)
				}
			}
		})
	}
}

// Full recompute must also be independent of the sharding: the
// reference's union path runs unchanged over per-pod heaps, so one
// allocator with flaps suffices here.
func TestDifferentialShardedFullRecompute(t *testing.T) {
	refReg := telemetry.NewRegistry()
	shardReg := telemetry.NewRegistry()
	want := runDifferentialScenario(t, "ideal-maxmin", 2, true, refReg, true, 1)
	got := runDifferentialScenario(t, "ideal-maxmin", 2, true, shardReg, true, -1)
	assertSameVector(t, "full-recompute", want, got)
}

// SetShards mid-run migrates projected completions between shard heaps
// without disturbing the outcome.
func TestSetShardsMidRunMigration(t *testing.T) {
	run := func(reshard bool) []float64 {
		top := diffFabric(t)
		net := NewNetwork(top)
		e := NewEngine(net, NewIdealMaxMin(net))
		e.SetTelemetry(telemetry.NewRegistry())
		// The reference run re-rates everything after every change.
		e.SetFullRecompute(!reshard)
		hosts := top.Hosts()
		var done []float64
		for i := 0; i < 24; i++ {
			i := i
			src, dst := hosts[i%len(hosts)], hosts[(i*7+3)%len(hosts)]
			if src == dst {
				dst = hosts[(i*7+4)%len(hosts)]
			}
			done = append(done, -1)
			at := 0.01 * float64(i)
			spec := FlowSpec{Src: src, Dst: dst, Bits: float64(6400 + 320*i)}
			if err := e.At(at, func(e *Engine) {
				if _, err := e.AddFlow(spec, func(e *Engine, _ FlowID) { done[i] = e.Now() }); err != nil {
					t.Fatal(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		if reshard {
			// Flip one shard → per-pod → one shard → per-pod while flows
			// are in flight; each flip migrates the projected completions.
			for i, n := range []int{-1, 1, -1} {
				n := n
				if err := e.At(0.05+0.1*float64(i), func(e *Engine) { e.SetShards(n) }); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Run(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		return done
	}
	want := run(false)
	got := run(true)
	assertSameVector(t, "mid-run reshard", want, got)
}

// Satellite regression: netsim.flows_active and
// netsim.completion_heap_size carry the per-engine label the
// utilization gauges got earlier, so two engines running concurrently
// (sabaexp -parallel) no longer overwrite each other's readings.
func TestEngineGaugesCarryEngineLabel(t *testing.T) {
	top, err := topology.NewSingleSwitch(topology.SingleSwitchConfig{Hosts: 4, LinkCapacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	mk := func(n int) *Engine {
		net := NewNetwork(top)
		e := NewEngine(net, NewIdealMaxMin(net))
		e.SetTelemetry(reg)
		hosts := top.Hosts()
		for i := 0; i < n; i++ {
			if _, err := e.AddFlow(FlowSpec{Src: hosts[i%3], Dst: hosts[3], Bits: 1e9}, nil); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	e1, e2 := mk(1), mk(3)
	if e1.engineID == e2.engineID {
		t.Fatalf("engines share id %q", e1.engineID)
	}
	g1 := reg.Gauge(telemetry.Label("netsim.flows_active", "engine", e1.engineID))
	g2 := reg.Gauge(telemetry.Label("netsim.flows_active", "engine", e2.engineID))
	if g1.Value() != 1 || g2.Value() != 3 {
		t.Errorf("flows_active gauges = %v, %v; want 1, 3 (per-engine, not shared)", g1.Value(), g2.Value())
	}
	unlabeled := reg.Gauge("netsim.flows_active")
	if unlabeled.Value() != 0 {
		t.Errorf("unlabeled flows_active gauge written: %v", unlabeled.Value())
	}
	// e1's first step projects its one flow (a timer stops it well
	// before the completion): its labeled heap gauge is written while
	// e2's (and the unlabeled name) never are.
	stop := false
	if err := e1.At(1e-6, func(*Engine) { stop = true }); err != nil {
		t.Fatal(err)
	}
	if err := e1.RunUntil(math.Inf(1), func() bool { return stop }); err != nil {
		t.Fatal(err)
	}
	h1 := reg.Gauge(telemetry.Label("netsim.completion_heap_size", "engine", e1.engineID))
	h2 := reg.Gauge(telemetry.Label("netsim.completion_heap_size", "engine", e2.engineID))
	if h1.Value() != 1 {
		t.Errorf("e1 heap gauge = %v after the first step, want 1 (its single projected flow)", h1.Value())
	}
	if err := e1.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if h1.Value() != 0 {
		t.Errorf("e1 heap gauge = %v after Run, want 0 (its only flow completed)", h1.Value())
	}
	if h2.Value() != 0 {
		t.Errorf("e2 heap gauge = %v, want 0 (e2 never stepped)", h2.Value())
	}
	if reg.Gauge("netsim.completion_heap_size").Value() != 0 {
		t.Errorf("unlabeled completion_heap_size gauge written")
	}
}

// A one-shard engine registers no per-shard gauges: its engine-level
// gauges carry the same readings, and registries never release an
// instrument, so processes that build thousands of engines would
// accumulate two dead gauges per engine.
func TestOneShardEngineRegistersNoShardGauges(t *testing.T) {
	top := diffFabric(t)
	net := NewNetwork(top)
	e := NewEngine(net, NewIdealMaxMin(net))
	reg := telemetry.NewRegistry()
	e.SetTelemetry(reg)
	e.SetShards(1)
	hosts := top.Hosts()
	for i := 0; i < 6; i++ {
		if _, err := e.AddFlow(FlowSpec{Src: hosts[i], Dst: hosts[len(hosts)-1-i], Bits: 1e6}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["netsim.flow_completions"] != 6 {
		t.Fatalf("flow_completions = %d, want 6", snap.Counters["netsim.flow_completions"])
	}
	for name := range snap.Gauges {
		if strings.Contains(name, "shard=") {
			t.Errorf("one-shard engine registered per-shard gauge %s", name)
		}
	}
}

// Partition-aware ownership: at one shard per pod, every flow lands on
// the heap of its source pod's shard.
func TestShardOwnershipFollowsSourcePod(t *testing.T) {
	top := diffFabric(t) // 2 pods
	part := top.Partition()
	net := NewNetwork(top)
	e := NewEngine(net, NewIdealMaxMin(net))
	e.SetTelemetry(telemetry.NewRegistry())
	e.SetShards(-1)
	if e.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2 (one per pod)", e.Shards())
	}
	hosts := top.Hosts()
	var ids []FlowID
	for i := 0; i < 8; i++ {
		src, dst := hosts[i], hosts[(i+5)%len(hosts)]
		id, err := e.AddFlow(FlowSpec{Src: src, Dst: dst, Bits: 1e6}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// One step (up to a timer well before any completion) rates the flows
	// and projects completions onto the shard heaps.
	stop := false
	if err := e.At(1e-6, func(*Engine) { stop = true }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(math.Inf(1), func() bool { return stop }); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		f, err := e.net.Flow(id)
		if err != nil {
			continue // already completed
		}
		want := int(part.OfNode(f.Src))
		if !e.sh.shards[want].completions.Contains(int(id)) {
			t.Errorf("flow %d (src pod %d) not on its home shard heap", id, want)
		}
	}
}

// SetShards accepts only the two settings, one shard (0 or 1) and one per
// pod (-1): any larger count panics, naming the method and the value.
func TestSetShardsRejectsFold(t *testing.T) {
	top := diffFabric(t)
	net := NewNetwork(top)
	e := NewEngine(net, NewIdealMaxMin(net))
	for _, n := range []int{2, 5} {
		msg := panicMessage(func() { e.SetShards(n) })
		if !strings.Contains(msg, fmt.Sprintf("SetShards(%d)", n)) {
			t.Errorf("SetShards(%d): got %q, want a panic naming SetShards(%d)", n, msg, n)
		}
	}
	if e.Shards() != 1 {
		t.Errorf("Shards() = %d after rejected calls, want 1 (unchanged)", e.Shards())
	}
}

// Engines that ran on a worker pool must be garbage collected, both when
// SetShards(1) released the pool and when the engine was dropped with
// the pool still running (the finalizer backstop), and in the first
// collection after they are dropped: a finalizer on the engine itself
// would keep its whole network alive for one more GC cycle, which on a
// run with few collections adds every dropped engine to the peak heap.
func TestShardedEngineIsCollected(t *testing.T) {
	prev := runtime.GOMAXPROCS(2) // a pool needs two schedulable slots
	defer runtime.GOMAXPROCS(prev)
	const engines = 6
	var freed atomic.Int32
	for i := 0; i < engines; i++ {
		top := diffFabric(t)
		net := NewNetwork(top)
		runtime.SetFinalizer(net, func(*Network) { freed.Add(1) })
		e := NewEngine(net, NewIdealMaxMin(net))
		e.SetTelemetry(telemetry.NewRegistry())
		e.SetShards(-1)
		hosts := top.Hosts()
		for j := 0; j < 8; j++ {
			if _, err := e.AddFlow(FlowSpec{Src: hosts[j], Dst: hosts[(j+5)%len(hosts)], Bits: 1e6}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			e.SetShards(1)
		}
	}
	// One collection finds every dropped network unreachable; their test
	// finalizers then run on the finalizer goroutine.
	runtime.GC()
	for try := 0; try < 400 && freed.Load() < engines; try++ {
		time.Sleep(5 * time.Millisecond)
	}
	if got := freed.Load(); got != engines {
		t.Errorf("%d of %d dropped engines were collected by one GC", got, engines)
	}
}

// engineGauges counts the gauges in reg labeled with any of the engine
// ids.
func engineGauges(reg *telemetry.Registry, ids ...string) int {
	n := 0
	for name := range reg.Snapshot().Gauges {
		for _, id := range ids {
			if strings.Contains(name, `engine="`+id+`"`) {
				n++
			}
		}
	}
	return n
}

// Dropped engines must release the gauges they registered under their
// engine label (flows_active, completion_heap_size, the port-utilization
// pair and the per-shard gauges) from the process-wide registry, and an
// engine rebound to another registry must release them at once: a
// process that builds thousands of short-lived engines (the profiler)
// would otherwise keep every one of them registered forever.
func TestDroppedEnginesReleaseGauges(t *testing.T) {
	prev := runtime.GOMAXPROCS(2) // per-pod engines also run a worker pool
	defer runtime.GOMAXPROCS(prev)
	const engines = 8
	var ids []string
	for i := 0; i < engines; i++ {
		top := diffFabric(t)
		net := NewNetwork(top)
		e := NewEngine(net, NewIdealMaxMin(net))
		if i%2 == 1 {
			e.SetShards(-1)
		}
		hosts := top.Hosts()
		for j := 0; j < 8; j++ {
			if _, err := e.AddFlow(FlowSpec{Src: hosts[j], Dst: hosts[(j+5)%len(hosts)], Bits: 1e6}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.engineID)
	}
	if n := engineGauges(telemetry.Default, ids...); n < 4*engines {
		t.Fatalf("the engines registered %d labeled gauges, want at least %d", n, 4*engines)
	}
	runtime.GC()
	for try := 0; try < 400 && engineGauges(telemetry.Default, ids...) > 0; try++ {
		time.Sleep(5 * time.Millisecond)
	}
	if n := engineGauges(telemetry.Default, ids...); n != 0 {
		t.Errorf("%d gauges of dropped engines are still registered", n)
	}

	net := NewNetwork(diffFabric(t))
	e := NewEngine(net, NewIdealMaxMin(net))
	e.SetShards(-1)
	if n := engineGauges(telemetry.Default, e.engineID); n == 0 {
		t.Fatal("a per-pod engine registered no labeled gauges")
	}
	e.SetTelemetry(telemetry.NewRegistry())
	if n := engineGauges(telemetry.Default, e.engineID); n != 0 {
		t.Errorf("%d gauges stay in the registry the engine was rebound away from", n)
	}
}

// decliner breaks the ShardableAllocator contract: once its shared
// budget of accepted scoped calls is spent, it and every clone decline
// AllocateScoped.
type decliner struct {
	*IdealMaxMin
	accept *atomic.Int64
}

func (decliner) Name() string { return "decliner" }

func (d decliner) AllocateScoped(net *Network, ids []FlowID) bool {
	if d.accept.Add(-1) < 0 {
		return false
	}
	return d.IdealMaxMin.AllocateScoped(net, ids)
}

func (d decliner) ShardClone() Allocator {
	return decliner{d.IdealMaxMin.ShardClone().(*IdealMaxMin), d.accept}
}

// panicMessage runs fn and returns what it panicked with ("<nil>" if it
// returned normally).
func panicMessage(fn func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	fn()
	return
}

// A shard clone that declines AllocateScoped must stop the run with a
// panic naming the allocator — on the first recompute or later (in a
// lookahead window or a barrier round), at one shard and per-pod shards,
// with the worker pool absent (GOMAXPROCS=1) or present (4).
func TestShardCloneDeclinePanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, -1} {
			for _, accept := range []int64{0, 3} {
				top := diffFabric(t)
				part := top.Partition()
				net := NewNetwork(top)
				budget := &atomic.Int64{}
				budget.Store(accept)
				e := NewEngine(net, decliner{NewIdealMaxMin(net), budget})
				e.SetTelemetry(telemetry.NewRegistry())
				e.SetShards(shards)
				for p := 0; p < part.NumParts(); p++ {
					hs := part.HostsIn(p)
					for i := 0; i < 6; i++ {
						spec := FlowSpec{Src: hs[0], Dst: hs[i+1], Bits: float64(i+1) * 1e3}
						if _, err := e.AddFlow(spec, nil); err != nil {
							t.Fatal(err)
						}
					}
				}
				msg := panicMessage(func() { _ = e.Run(math.Inf(1)) })
				if !strings.Contains(msg, `"decliner" declined AllocateScoped`) {
					t.Errorf("GOMAXPROCS=%d shards=%d accept=%d: got %q, want a panic naming the declining allocator",
						procs, shards, accept, msg)
				}
			}
		}
	}
}
