package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"saba/internal/netsim"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// HyperscaleConfig parameterizes FigHyperscale (repo extension): a
// fabric one order of magnitude beyond the paper's 1,944 servers,
// driven directly through the simulation engine with pod-local flow
// waves so the per-pod sharded event loops have independent work. The
// zero value selects a 16-pod fabric with 10,240 hosts and ~1M flows.
type HyperscaleConfig struct {
	Topology     topology.SpineLeafConfig // zero → 16 pods × 16 ToRs × 40 hosts/ToR
	Waves        int                      // admission waves; 0 → 50
	FlowsPerWave int                      // flows admitted per wave; 0 → 4096
	WaveGap      float64                  // virtual seconds between waves; 0 → 2ms
	MeanBits     float64                  // mean flow size; 0 → 1e7 bits
	// CrossPod is the fraction of flows whose destination is in another
	// pod (0 = fully pod-local, the default). Pod-local traffic keeps
	// dirty components pod-sized — what both scoped recomputation and
	// the per-pod shards exploit. Even a few percent of cross-pod flows
	// chains every pod's component together through the spine links and
	// slows scoped recomputation by more than an order of magnitude at
	// this scale, so cross traffic is opt-in for sweeps that study it.
	CrossPod float64
	Seed     int64
	// Shards selects the engine sharding (netsim.Engine.SetShards): -1
	// = one shard per pod, 1 = one shard; 0 → -1, the setting this
	// figure exists to exercise.
	Shards int
	// CompareSerial additionally replays the identical workload on the
	// engine's full-recompute reference (one shard, SetFullRecompute:
	// no scoping, no clones, no lookahead windows) and checks the
	// completion digests match bit-for-bit. Off by default: the
	// reference re-rates every active flow on every change, so it is
	// only affordable on reduced shapes.
	CompareSerial bool
}

func (c *HyperscaleConfig) fill() {
	if c.Topology.Pods == 0 {
		c.Topology = topology.SpineLeafConfig{
			Pods: 16, ToRsPerPod: 16, LeavesPerPod: 4, Spines: 4,
			HostsPerToR: 40, Queues: 16,
		}
	}
	if c.Waves == 0 {
		c.Waves = 256
	}
	if c.FlowsPerWave == 0 {
		c.FlowsPerWave = 4096
	}
	if c.WaveGap == 0 {
		c.WaveGap = 2e-3
	}
	if c.MeanBits == 0 {
		c.MeanBits = 1e7
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Shards == 0 {
		c.Shards = -1
	}
}

// hyperRun is the measurement of one engine pass over the workload.
type hyperRun struct {
	admitted  int
	completed int
	shards    int
	makespan  float64
	wallSecs  float64
	eventsSec float64
	digest    uint64
}

// HyperscaleResult reports a FigHyperscale run.
type HyperscaleResult struct {
	Hosts, Pods, Shards int
	Flows, Completed    int
	Makespan            float64 // virtual seconds
	WallSecs            float64
	EventsPerSec        float64
	// Reference comparison (zero / false unless CompareSerial was set).
	SerialWallSecs float64
	Speedup        float64
	DigestMatch    bool
}

// FigHyperscale builds a 10k+ host fabric and pushes pod-local flow
// waves through the sharded engine. It exists to demonstrate — and
// gate in CI — that the engine completes at this scale, and (with
// CompareSerial) that sharding, scoping and lookahead do not change a
// single completion time.
func FigHyperscale(cfg HyperscaleConfig) (*HyperscaleResult, error) {
	cfg.fill()
	top, err := topology.NewSpineLeaf(cfg.Topology)
	if err != nil {
		return nil, err
	}
	part := top.Partition()
	if len(part.HostsIn(0)) < 2 {
		return nil, fmt.Errorf("hyperscale: pods need at least 2 hosts for local traffic")
	}
	sharded, err := runHyperscale(top, cfg, cfg.Shards, false)
	if err != nil {
		return nil, err
	}
	out := &HyperscaleResult{
		Hosts:        len(top.Hosts()),
		Pods:         part.NumParts(),
		Shards:       sharded.shards,
		Flows:        sharded.admitted,
		Completed:    sharded.completed,
		Makespan:     sharded.makespan,
		WallSecs:     sharded.wallSecs,
		EventsPerSec: sharded.eventsSec,
	}
	if sharded.completed != sharded.admitted {
		return nil, fmt.Errorf("hyperscale: %d of %d flows never completed",
			sharded.admitted-sharded.completed, sharded.admitted)
	}
	if cfg.CompareSerial {
		ref, err := runHyperscale(top, cfg, 1, true)
		if err != nil {
			return nil, err
		}
		out.SerialWallSecs = ref.wallSecs
		if sharded.wallSecs > 0 {
			out.Speedup = ref.wallSecs / sharded.wallSecs
		}
		out.DigestMatch = ref.digest == sharded.digest &&
			ref.completed == sharded.completed
		if !out.DigestMatch {
			return nil, fmt.Errorf("hyperscale: sharded run diverged from the full-recompute reference (digest %x vs %x, completed %d vs %d)",
				sharded.digest, ref.digest, sharded.completed, ref.completed)
		}
	}
	return out, nil
}

// runHyperscale replays the seeded workload once on a fresh network,
// with full recompute when full is set. The admission schedule is a
// pure function of the seed, so every pass sees byte-identical flow
// sequences.
func runHyperscale(top *topology.Topology, cfg HyperscaleConfig, shards int, full bool) (hyperRun, error) {
	// Event throughput is measured as a before/after delta on the
	// process-wide registry's event counter — the same counter the bench
	// harness meters — so a FigHyperscale bench cell reports real
	// events/sec instead of a private registry the harness never sees.
	events := telemetry.Default.Counter("netsim.events")
	net := netsim.NewNetwork(top)
	e := netsim.NewEngine(net, netsim.NewIdealMaxMin(net))
	e.SetShards(shards)
	e.SetFullRecompute(full)
	// The digest callback reads only e.Now() and folds into run-local
	// state, so the engine may retire pod-local completions in lookahead
	// windows (the callbacks still fire in the same order at the same
	// virtual times).
	e.SetPureCallbacks(true)
	part := top.Partition()
	pods := part.NumParts()

	var run hyperRun
	// Completion digest: FNV-style fold over (flow id, completion time)
	// in callback order. Callback order is part of the engine's
	// determinism contract, so the reference and sharded digests must
	// collide exactly or not at all.
	run.digest = 14695981039346656037
	record := func(e *netsim.Engine, id netsim.FlowID) {
		run.completed++
		run.digest = (run.digest ^ uint64(id)) * 1099511628211
		run.digest = (run.digest ^ math.Float64bits(e.Now())) * 1099511628211
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	for w := 0; w < cfg.Waves; w++ {
		at := float64(w) * cfg.WaveGap
		if err := e.At(at, func(e *netsim.Engine) {
			specs := make([]netsim.FlowSpec, cfg.FlowsPerWave)
			for i := range specs {
				sp := rng.Intn(pods)
				hs := part.HostsIn(sp)
				src := hs[rng.Intn(len(hs))]
				var dst topology.NodeID
				if pods == 1 || rng.Float64() >= cfg.CrossPod {
					dst = hs[rng.Intn(len(hs))]
					for dst == src {
						dst = hs[rng.Intn(len(hs))]
					}
				} else {
					dp := rng.Intn(pods - 1)
					if dp >= sp {
						dp++
					}
					hd := part.HostsIn(dp)
					dst = hd[rng.Intn(len(hd))]
				}
				// Heavy-tailed sizes around the mean: a fixed floor plus an
				// exponential body.
				bits := cfg.MeanBits * (0.25 + 0.75*rng.ExpFloat64())
				specs[i] = netsim.FlowSpec{Src: src, Dst: dst, Bits: bits, Mult: 1}
			}
			if _, err := e.AddFlows(specs, record); err != nil {
				panic(err)
			}
			run.admitted += len(specs)
		}); err != nil {
			return run, err
		}
	}

	ev0 := events.Value()
	start := time.Now()
	if err := e.Run(math.Inf(1)); err != nil {
		return run, err
	}
	run.wallSecs = time.Since(start).Seconds()
	run.makespan = e.Now()
	run.shards = e.Shards()
	if run.wallSecs > 0 {
		run.eventsSec = float64(events.Value()-ev0) / run.wallSecs
	}
	return run, nil
}

// String renders the run.
func (r *HyperscaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FigHyperscale — sharded engine at hyperscale (repo extension)\n")
	fmt.Fprintf(&b, "hosts=%d pods=%d shards=%d\n", r.Hosts, r.Pods, r.Shards)
	fmt.Fprintf(&b, "flows=%d completed=%d makespan=%.4fs\n", r.Flows, r.Completed, r.Makespan)
	fmt.Fprintf(&b, "wall=%.2fs events/s=%.0f\n", r.WallSecs, r.EventsPerSec)
	if r.SerialWallSecs > 0 {
		fmt.Fprintf(&b, "reference wall=%.2fs speedup=%.2fx digest-match=%v\n",
			r.SerialWallSecs, r.Speedup, r.DigestMatch)
	}
	return b.String()
}
