package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"saba/internal/solver"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// The differential test is the gate on the incremental engine: for every
// allocator, a seeded random workload — batched admissions, cancels, and
// (for WFQ) mid-run reconfigurations — must produce bit-for-bit identical
// completion times whether rates are recomputed globally after every
// change (SetFullRecompute(true)) or scoped to the dirty component.

func diffFabric(t testing.TB) *topology.Topology {
	t.Helper()
	top, err := topology.NewSpineLeaf(topology.SpineLeafConfig{
		Pods: 2, ToRsPerPod: 2, LeavesPerPod: 2, Spines: 2,
		HostsPerToR: 4, Queues: 8, LinkCapacity: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// diffAllocator builds one of the six disciplines against a network,
// configuring WFQ's ports the way the controller would.
func diffAllocator(name string, net *Network, reg *telemetry.Registry) Allocator {
	switch name {
	case "ideal-maxmin":
		return NewIdealMaxMin(net)
	case "fecn":
		return NewFECN(net, 0)
	case "homa":
		return NewHoma(net, nil)
	case "sincronia":
		return NewSincronia(net)
	case "wfq":
		w := NewWFQ(net)
		w.SetTelemetry(reg)
		configureWFQPorts(w, net, 0)
		return w
	case "decentral":
		d := NewDecentral(net, DecentralConfig{})
		d.SetTelemetry(reg)
		// Deterministic convex sensitivity models for the scenario's four
		// applications, spanning sensitive to indifferent.
		d.SetObjective(0, solver.PolyObjective{Coeffs: []float64{4.0, -4.5, 1.6}})
		d.SetObjective(1, solver.PolyObjective{Coeffs: []float64{2.4, -1.87, 0.47}})
		d.SetObjective(2, solver.PolyObjective{Coeffs: []float64{1.8, -1.0, 0.25}})
		d.SetObjective(3, solver.PolyObjective{Coeffs: []float64{1.2, -0.21}})
		return d
	}
	panic("unknown allocator " + name)
}

// configureWFQPorts installs deterministic per-port queue configs; round
// varies the weights so mid-run reconfiguration genuinely changes them.
func configureWFQPorts(w *WFQ, net *Network, round int) {
	for _, lk := range net.Topology().Links() {
		weights := make([]float64, 8)
		for q := range weights {
			weights[q] = float64(1 + (q*7+int(lk.ID)+round*3)%5)
		}
		plq := map[int]int{}
		for pl := 0; pl < 8; pl++ {
			plq[pl] = (pl + round) % len(weights)
		}
		if err := w.Configure(lk.ID, PortConfig{Weights: weights, PLQueue: plq}); err != nil {
			panic(err)
		}
	}
}

// runDifferential drives one seeded scenario and returns the completion
// time of every admission (-1 when cancelled), in admission order.
func runDifferential(t *testing.T, name string, seed int64, full bool, reg *telemetry.Registry) []float64 {
	return runDifferentialScenario(t, name, seed, full, reg, false, 0)
}

// runDifferentialScenario is runDifferential with an optional seeded
// link-flap schedule layered on top (see faults_test.go) and an engine
// shard count (0 or 1 = one shard, -1 = one shard per pod; see shard.go).
func runDifferentialScenario(t *testing.T, name string, seed int64, full bool, reg *telemetry.Registry, withFlaps bool, shards int) []float64 {
	t.Helper()
	top := diffFabric(t)
	net := NewNetwork(top)
	alloc := diffAllocator(name, net, reg)
	e := NewEngine(net, alloc)
	e.SetTelemetry(reg)
	e.SetFullRecompute(full)
	e.SetShards(shards)
	// The record callback only reads e.Now() and writes scenario-local
	// slices, so the sharded runs may use lookahead windows.
	e.SetPureCallbacks(true)

	rng := rand.New(rand.NewSource(seed))
	hosts := top.Hosts()

	var (
		done   []float64 // per admission index; -1 = still open / cancelled
		ids    []FlowID  // per admission index
		idxOf  = map[FlowID]int{}
		record = func(e *Engine, id FlowID) {
			done[idxOf[id]] = e.Now()
		}
	)

	const waves = 30
	for w := 0; w < waves; w++ {
		at := float64(w) * 0.37
		batch := 1 + rng.Intn(6)
		specs := make([]FlowSpec, batch)
		for i := range specs {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if rng.Intn(5) > 0 {
				for dst == src {
					dst = hosts[rng.Intn(len(hosts))]
				}
			} else {
				dst = src // ~20% loopback
			}
			coflow := CoflowID(rng.Intn(6))
			if rng.Intn(3) == 0 {
				coflow = NoCoflow
			}
			specs[i] = FlowSpec{
				Src: src, Dst: dst,
				Bits:   float64((1 + rng.Intn(5000)) * 64),
				App:    AppID(rng.Intn(4)),
				PL:     rng.Intn(8),
				Mult:   1 + rng.Intn(2),
				Coflow: coflow,
			}
		}
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
		if w%5 == 2 {
			// Cancel a pseudo-random earlier admission; a no-op error when
			// it already completed (identically in both modes, since the
			// rate histories must match).
			victim := rng.Intn((w + 1) * 3)
			if err := e.At(at+0.11, func(e *Engine) {
				if victim < len(ids) && done[victim] < 0 {
					_ = e.CancelFlow(ids[victim])
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if withFlaps {
		// Layer a seeded link-flap schedule over the workload: both
		// directions of a pseudo-random core (switch-to-switch) cable go
		// down and come back while admissions and cancels keep arriving.
		// A separate RNG keeps the admission sequence identical to the
		// flap-free scenario for the same seed.
		cables := coreCables(top)
		frng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for w := 0; w < 6; w++ {
			at := 1.3 + 1.6*float64(w)
			cable := cables[frng.Intn(len(cables))]
			if err := e.At(at, func(e *Engine) {
				if err := e.FailLinks(cable...); err != nil {
					panic(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if err := e.At(at+0.7, func(e *Engine) {
				if err := e.RestoreLinks(cable...); err != nil {
					panic(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if name == "wfq" {
		// Reconfigure every port mid-run, as the controller does when the
		// application mix shifts, and invalidate all rates.
		if err := e.At(15*0.37+0.05, func(e *Engine) {
			configureWFQPorts(alloc.(*WFQ), net, 1)
			e.MarkDirty()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(math.Inf(1)); err != nil {
		t.Fatalf("%s seed %d full=%v: %v", name, seed, full, err)
	}
	return done
}

func TestDifferentialScopedMatchesFull(t *testing.T) {
	allocators := []string{"ideal-maxmin", "fecn", "wfq", "homa", "sincronia", "decentral"}
	scopable := map[string]bool{"ideal-maxmin": true, "fecn": true, "wfq": true, "decentral": true}
	for _, name := range allocators {
		name := name
		t.Run(name, func(t *testing.T) {
			scopedEngaged := false
			for seed := int64(1); seed <= 5; seed++ {
				fullReg := telemetry.NewRegistry()
				scopedReg := telemetry.NewRegistry()
				want := runDifferential(t, name, seed, true, fullReg)
				got := runDifferential(t, name, seed, false, scopedReg)
				if len(want) != len(got) {
					t.Fatalf("seed %d: admission counts differ: full %d, scoped %d", seed, len(want), len(got))
				}
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Errorf("seed %d admission %d: completion %v (full) vs %v (scoped); diff %g",
							seed, i, want[i], got[i], got[i]-want[i])
					}
				}
				if fullReg.Counter("netsim.scoped_recomputes").Value() != 0 {
					t.Errorf("seed %d: full mode performed scoped recomputes", seed)
				}
				if scopedReg.Counter("netsim.scoped_recomputes").Value() > 0 {
					scopedEngaged = true
				}
			}
			if scopable[name] && !scopedEngaged {
				t.Errorf("%s: scoped mode never performed a scoped recompute", name)
			}
			if !scopable[name] && scopedEngaged {
				t.Errorf("%s: non-scopable allocator reported scoped recomputes", name)
			}
		})
	}
}

// TestDifferentialExample documents the shape of the gate for one seed so
// failures print a digestible vector, and exercises fmt in the helper.
func TestDifferentialCompletionVectorNonTrivial(t *testing.T) {
	reg := telemetry.NewRegistry()
	done := runDifferential(t, "ideal-maxmin", 1, false, reg)
	completed := 0
	for _, d := range done {
		if d >= 0 {
			completed++
		}
	}
	if completed < len(done)/2 {
		t.Fatalf("scenario too degenerate: only %d/%d completions (%s)",
			completed, len(done), fmt.Sprint(done[:min(8, len(done))]))
	}
}
