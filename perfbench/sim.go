package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"saba/internal/netsim"
	"saba/internal/topology"
)

// simParams sizes the pod-local and cross-pod workloads: FigHyperscale's
// flow-wave generator driven straight into the engine.
type simParams struct {
	Topology     topology.SpineLeafConfig
	Episodes     int     // distinct episodes generated; a run cycles through them
	Waves        int     // admission waves per episode
	FlowsPerWave int     // flows admitted per wave
	WaveGap      float64 // virtual seconds between waves
	MeanBits     float64 // mean flow size
	CrossPod     float64 // fraction of flows whose destination is in another pod
	SetupReps    int     // timed set-up repetitions after the warm-up
	// dropCompletion loses one completion per episode before it is
	// counted. Tests set it to check that the output checks trip.
	dropCompletion bool
}

// hyperscaleFabric is FigHyperscale's default fabric: 16 pods × 16 ToRs
// × 40 hosts, 10,240 hosts in all.
var hyperscaleFabric = topology.SpineLeafConfig{
	Pods: 16, ToRsPerPod: 16, LeavesPerPod: 4, Spines: 4, HostsPerToR: 40, Queues: 16,
}

// podLocalParams keeps every flow inside its pod. An episode is
// FigHyperscale's wave schedule cut to 16 waves of 4,096 flows (65,536
// flows, about two seconds of engine work); 65,536 flows average out the
// draw, so one episode, replayed, serves every seed equally.
var podLocalParams = simParams{
	Topology: hyperscaleFabric, Episodes: 1, Waves: 16, FlowsPerWave: 4096,
	WaveGap: 2e-3, MeanBits: 1e7, SetupReps: 3,
}

// crossPodParams sends 2% of flows across pods, which merges every pod
// into one fabric-wide dirty component. An episode is one wave of 2,560
// flows. Near 2,048 flows a wave sits on the edge of that merge: at 1,536
// it drains before its pods merge and costs about 15 times less, and at
// 2,048 one wave's cost varied by a factor of four between draws (0.37 to
// 1.9 s). At 2,560 every draw merges, a wave costs 3 to 4.5 s, and draws
// of one seed differ by about a tenth. Three distinct waves a seed, each
// played at least twice, fill a run.
var crossPodParams = simParams{
	Topology: hyperscaleFabric, Episodes: 3, Waves: 1, FlowsPerWave: 2560,
	WaveGap: 2e-3, MeanBits: 1e7, CrossPod: 0.02, SetupReps: 3,
}

// simEnv is the set-up of a simulated workload: the fabric and the
// episodes generated from the seed.
type simEnv struct {
	p        simParams
	top      *topology.Topology
	episodes [][][]netsim.FlowSpec // episode → wave → flows
}

func buildSimEnv(p simParams, seed int64, t *setupTimer) (*simEnv, error) {
	env := &simEnv{p: p}
	var part *topology.Partition
	var err error
	if env.top, part, err = buildFabric(p.Topology, t); err != nil {
		return nil, err
	}
	err = t.phase("workload.gen_s", func() (err error) {
		env.episodes, err = genEpisodes(p, seed, part)
		return err
	})
	return env, err
}

// genEpisodes draws the flow waves from FigHyperscale's distribution: a
// source host uniform within its pod, a destination in the same pod
// unless the flow is one of the CrossPod share (then uniform in another
// pod), and a heavy-tailed size around MeanBits. Unlike FigHyperscale,
// which draws every flow independently, a wave is stratified: each pod
// sources the same number of flows, exactly round(CrossPod × flows) of
// them cross pods, and the sizes are the distribution's quantiles at
// evenly spaced points, dealt to flows at random. Draws then differ in
// which hosts talk and which flow gets which size, not in how many flows
// cross pods or how heavy the tail is: the count of cross-pod flows
// decides whether and how fast the pods merge into one component, and
// with it most of a cross-pod wave's cost. Episodes continue one random
// stream.
func genEpisodes(p simParams, seed int64, part *topology.Partition) ([][][]netsim.FlowSpec, error) {
	pods := part.NumParts()
	if len(part.HostsIn(0)) < 2 {
		return nil, fmt.Errorf("sim: pods need at least 2 hosts for local traffic")
	}
	n := p.FlowsPerWave
	cross := 0
	if pods > 1 {
		cross = int(math.Round(p.CrossPod * float64(n)))
	}
	rng := rand.New(rand.NewSource(seed))
	episodes := make([][][]netsim.FlowSpec, p.Episodes)
	for e := range episodes {
		waves := make([][]netsim.FlowSpec, p.Waves)
		for w := range waves {
			srcPod := rng.Perm(n)   // flow i starts in pod srcPod[i] % pods
			isCross := rng.Perm(n)  // flow i crosses pods if isCross[i] < cross
			sizeRank := rng.Perm(n) // flow i gets the sizeRank[i]-th quantile
			u0 := rng.Float64()     // offset of the evenly spaced quantile points
			specs := make([]netsim.FlowSpec, n)
			for i := range specs {
				sp := srcPod[i] % pods
				hs := part.HostsIn(sp)
				src := hs[rng.Intn(len(hs))]
				var dst topology.NodeID
				if isCross[i] >= cross {
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
				// Quantile q of 0.25 + 0.75·Exp(1), in units of MeanBits.
				q := (float64(sizeRank[i]) + u0) / float64(n)
				bits := p.MeanBits * (0.25 - 0.75*math.Log1p(-q))
				specs[i] = netsim.FlowSpec{Src: src, Dst: dst, Bits: bits, Mult: 1}
			}
			waves[w] = specs
		}
		episodes[e] = waves
	}
	return episodes, nil
}

// simTrace accumulates the traced episodes' per-layer figures.
type simTrace struct {
	spans    *spanLog
	alloc    allocStats
	episodes int
	run      time.Duration
	addflows time.Duration
	counters counterDelta
}

// simEpisode is one play of an episode on a fresh network and engine.
type simEpisode struct {
	admitted, completed int
	digest              uint64
	cpu                 float64     // CPU seconds the play took
	lat                 [][]float64 // flow latencies in CPU seconds, by admission wave
	err                 error
}

// episode plays one generated episode on a fresh network and engine.
// An untraced episode (tr nil) records every flow's latency on the CPU
// clock: from the AddFlows call that admitted it to its completion
// callback.
func (env *simEnv) episode(waves [][]netsim.FlowSpec, op int64, tr *simTrace) simEpisode {
	start, cpu0 := time.Now(), cpuClock()
	var spans *spanLog
	var epID, runID int64
	if tr != nil {
		spans = tr.spans
		epID, runID = spans.id(), spans.id()
		tr.counters.begin()
	}
	net := netsim.NewNetwork(env.top)
	var alloc netsim.Allocator = netsim.NewIdealMaxMin(net)
	if tr != nil {
		alloc = probeAllocator(alloc, &tr.alloc)
	}
	e := netsim.NewEngine(net, alloc)
	e.SetShards(-1) // one shard per pod, as sabaexp -fig hyperscale runs it
	// The completion callback only reads e.Now() and folds into
	// episode-local state, so lookahead windows stay enabled.
	e.SetPureCallbacks(true)
	defer e.SetShards(1) // stops the shard workers

	var ep simEpisode
	if tr == nil {
		ep.lat = make([][]float64, len(waves))
	}
	// Per flow slot: admission time on the CPU clock, and wave.
	admitCPU := make([]time.Duration, 0, len(waves)*env.p.FlowsPerWave)
	admitWave := make([]int32, 0, len(waves)*env.p.FlowsPerWave)
	// Completion digest, computed as FigHyperscale computes it: an FNV
	// fold over (flow id, completion time) in callback order.
	ep.digest = 14695981039346656037
	drop := env.p.dropCompletion
	record := func(e *netsim.Engine, id netsim.FlowID) {
		if drop {
			drop = false
			return
		}
		ep.completed++
		ep.digest = (ep.digest ^ uint64(id)) * 1099511628211
		ep.digest = (ep.digest ^ math.Float64bits(e.Now())) * 1099511628211
		if ep.lat != nil {
			w := admitWave[id]
			ep.lat[w] = append(ep.lat[w], (cpuClock() - admitCPU[id]).Seconds())
		}
	}
	for w, specs := range waves {
		err := e.At(float64(w)*env.p.WaveGap, func(e *netsim.Engine) {
			if ep.err != nil {
				return
			}
			t0, at := time.Now(), cpuClock()
			ids, err := e.AddFlows(specs, record)
			t1 := time.Now()
			if err != nil {
				ep.err = fmt.Errorf("sim: wave %d: %w", w, err)
				return
			}
			for _, id := range ids {
				for int(id) >= len(admitCPU) {
					admitCPU, admitWave = append(admitCPU, 0), append(admitWave, 0)
				}
				admitCPU[id], admitWave[id] = at, int32(w)
			}
			ep.admitted += len(ids)
			if tr != nil {
				tr.addflows += t1.Sub(t0)
				spans.add(spans.id(), runID, op, "netsim.addflows", t0, t1)
			}
		})
		if err != nil {
			ep.err = err
			return ep
		}
	}
	r0 := time.Now()
	if err := e.Run(math.Inf(1)); err != nil && ep.err == nil {
		ep.err = fmt.Errorf("sim: run: %w", err)
	}
	r1 := time.Now()
	ep.cpu = (cpuClock() - cpu0).Seconds()
	if tr != nil {
		tr.episodes++
		tr.run += r1.Sub(r0)
		tr.counters.end()
		spans.add(runID, epID, op, "netsim.run", r0, r1)
		spans.add(epID, 0, op, "episode", start, r1)
	}
	return ep
}

// runSim measures a simulated workload for rc.Seconds: whole cycles of
// the generated episodes back to back, each on a fresh engine (see
// playing). A traced run plays every episode twice in a row, untraced
// then traced, so the tracing overhead compares identical work.
func runSim(p simParams, rc runConfig) (*outcome, error) {
	env, st, err := repeatSetup(p.SetupReps, rc.spans, func(t *setupTimer) (*simEnv, error) {
		return buildSimEnv(p, rc.Seed, t)
	}, func(*simEnv) {})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.Manifest["topology"] = p.Topology
	out.Manifest["episodes"] = p.Episodes
	out.Manifest["waves"] = p.Waves
	out.Manifest["flows_per_wave"] = p.FlowsPerWave
	out.Manifest["wave_gap_s"] = p.WaveGap
	out.Manifest["mean_bits"] = p.MeanBits
	out.Manifest["cross_pod"] = p.CrossPod
	out.Manifest["hosts"] = len(env.top.Hosts())
	out.Manifest["setup_reps"] = p.SetupReps
	out.E2E.set("setup_s", median(st.totals), "s")

	var tr *simTrace
	if rc.Trace {
		tr = &simTrace{spans: rc.spans, counters: newCounterDelta(simSources()...)}
	}
	mem := startMemDelta()
	// Untraced flow latencies: one group per distinct admission wave,
	// one window per play of it.
	lat := make([][][]float64, len(env.episodes)*p.Waves)
	plays := newPlayLog(len(env.episodes))
	digests := make([]uint64, len(env.episodes))
	seen := make([]bool, len(env.episodes))
	played, cycle := 0, len(env.episodes)
	if tr != nil {
		cycle *= 2
	}
	start := time.Now()
	deadline := start.Add(rc.duration())
	k := 0
	for ; playing(k, len(env.episodes), cycle, start, deadline); k++ {
		i, traced := k%len(env.episodes), false
		if tr != nil {
			i, traced = (k/2)%len(env.episodes), k%2 == 1
		}
		var ep simEpisode
		if traced {
			ep = env.episode(env.episodes[i], int64(k+1), tr)
		} else {
			ep = env.episode(env.episodes[i], int64(k+1), nil)
			for w, l := range ep.lat {
				lat[i*p.Waves+w] = append(lat[i*p.Waves+w], l)
			}
		}
		out.Attempted += int64(ep.admitted)
		out.Failed += int64(ep.admitted - ep.completed)
		want := p.Waves * p.FlowsPerWave
		switch {
		case ep.err != nil:
			out.fail("episode %d: %v", k, ep.err)
		case ep.completed != ep.admitted:
			out.fail("episode %d: %d of %d admitted flows never completed", k, ep.admitted-ep.completed, ep.admitted)
		case ep.admitted != want:
			out.fail("episode %d: admitted %d flows, generated %d", k, ep.admitted, want)
		}
		// A replayed episode must complete every flow at the same
		// virtual time, traced or not.
		if !seen[i] {
			seen[i], digests[i] = true, ep.digest
			played++
		} else if ep.digest != digests[i] {
			out.Failed += int64(ep.completed)
			out.fail("episode %d: completion digest %016x differs from the first play's %016x", k, ep.digest, digests[i])
		}
		plays.add(i, traced, float64(ep.completed), ep.cpu)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.E2E.set("peak_rss_mb", rss, "MB")
	out.E2E.set("ops_per_s", plays.rate(false), "1/s")
	ls := summarizeReplayed(lat)
	out.E2E.set("op_p50_ms", ls.P50, "ms")
	out.E2E.set("op_tail_ms", ls.Tail, "ms")
	out.Report["op"] = "flow: CPU time of the process from its AddFlows admission to its completion callback; ops_per_s counts completions per CPU second"
	out.Report["latency"] = ls
	out.Report["digest"] = fmt.Sprintf("%016x", digests[0])
	out.Report["distinct_episodes_played"] = played
	out.Report["episode_cpu_s"] = plays.medianTimes(false)
	out.Report["cycles"] = k / cycle
	out.Report["flows_per_episode"] = p.Waves * p.FlowsPerWave
	out.Report["setup_reps_s"] = st.totals

	setupLayers(out.Layers, st)
	if tr != nil {
		n := float64(tr.episodes)
		out.Layers.set("netsim.run_s", tr.run.Seconds()/n, "s")
		out.Layers.set("netsim.addflows_s", tr.addflows.Seconds()/n, "s")
		out.Layers.set("netsim.self_s", (tr.run-tr.alloc.union-tr.addflows).Seconds()/n, "s")
		tr.alloc.report(out.Layers, n)
		tr.counters.report(out.Layers, n, simCounterNames...)
		mem.report(out.Layers)
		out.Layers.set("trace.overhead_pct", overheadPct(plays.rate(false), plays.rate(true)), "%")
	}
	return out, nil
}

// simSources are the engine counters the traced run reports as
// per-episode deltas, under their per-layer metric names.
func simSources() []counterSource {
	return []counterSource{
		{"netsim.events", counterOf("netsim.events")},
		{"netsim.recomputes", counterOf("netsim.rate_recomputes")},
		{"netsim.dirty_flows", counterOf("netsim.dirty_flows")},
		{"netsim.lookahead_completions", counterOf("netsim.lookahead_completions")},
	}
}

var simCounterNames = []string{"netsim.events", "netsim.recomputes", "netsim.dirty_flows", "netsim.lookahead_completions"}
