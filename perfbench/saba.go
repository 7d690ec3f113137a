package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"saba/internal/controller"
	"saba/internal/core"
	"saba/internal/netsim"
	"saba/internal/profiler"
	"saba/internal/telemetry"
	"saba/internal/topology"
	"saba/internal/workload"
)

// sabaParams sizes the saba workload: the paper's pipeline (synthetic
// apps → profiler → centralized controller → WFQ) run through
// core.RunJobs on the serial engine.
type sabaParams struct {
	Topology  topology.SpineLeafConfig
	CoRuns    int // distinct co-runs drawn from the seed; a run cycles through them
	Apps      int // synthetic workloads per co-run, one instance per host
	SetupReps int
	// dropJob erases one job's completion in the first episode. Tests
	// set it to check that the output checks trip.
	dropJob bool
}

// fig10Fabric is Fig 10's scaled spine-leaf shape (3 pods, 7 leaves per
// pod over 7 spines) with twice the ToRs: 144 hosts instead of 72, so
// one co-run lasts about a second.
var fig10Fabric = topology.SpineLeafConfig{
	Pods: 3, ToRsPerPod: 6, LeavesPerPod: 7, Spines: 7, HostsPerToR: 8, Queues: 16,
}

// sabaBenchParams draws twelve co-runs per seed: one co-run's cost and
// Saba's gain over FECN vary by about a fifth between draws, and
// averaging twelve keeps both steady across seeds.
var sabaBenchParams = sabaParams{Topology: fig10Fabric, CoRuns: 12, Apps: 20, SetupReps: 5}

// sabaEnv is the saba workload's set-up: the fabric and the co-runs.
type sabaEnv struct {
	top    *topology.Topology
	coRuns []*coRun
}

// coRun is one co-run of the paper's pipeline: a synthetic app set, its
// profiled table and its placement, all drawn from one seed.
type coRun struct {
	seed  int64
	table *profiler.Table
	jobs  []core.JobSpec
}

// profileApps profiles every spec on the simulated testbed and fits the
// degree-3 models the controller consumes.
func profileApps(specs []workload.Spec) (*profiler.Table, error) {
	table := profiler.NewTable()
	for _, spec := range specs {
		res, err := profiler.Profile(spec.Name, &profiler.SimRunner{Spec: spec}, nil, []int{3})
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", spec.Name, err)
		}
		if err := table.PutResult(res, 3); err != nil {
			return nil, err
		}
	}
	return table, nil
}

func buildSabaEnv(p sabaParams, seed int64, t *setupTimer) (*sabaEnv, error) {
	env := &sabaEnv{}
	var err error
	if env.top, _, err = buildFabric(p.Topology, t); err != nil {
		return nil, err
	}
	for k := 0; k < p.CoRuns; k++ {
		cr, err := buildCoRun(p, env.top, seed*1000+int64(k), t)
		if err != nil {
			return nil, err
		}
		env.coRuns = append(env.coRuns, cr)
	}
	return env, nil
}

func buildCoRun(p sabaParams, top *topology.Topology, seed int64, t *setupTimer) (*coRun, error) {
	cr := &coRun{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	var specs []workload.Spec
	t.phase("workload.gen_s", func() error {
		specs = workload.Synthetic(workload.SynthConfig{Count: p.Apps}, rng)
		return nil
	})
	if err := t.phase("profiler.profile_s", func() (err error) {
		cr.table, err = profileApps(specs)
		return err
	}); err != nil {
		return nil, err
	}
	err := t.phase("workload.gen_s", func() error {
		placements := dealHosts(rng, top.Hosts(), len(specs))
		cr.jobs = make([]core.JobSpec, len(specs))
		for i, spec := range specs {
			nodes := placements[i]
			if len(nodes) < 2 {
				return fmt.Errorf("saba: app %s got %d instances; enlarge the fabric", spec.Name, len(nodes))
			}
			cr.jobs[i] = core.JobSpec{Spec: spec, Nodes: nodes}
		}
		return nil
	})
	return cr, err
}

// sabaTrace accumulates the traced episodes' per-layer figures.
type sabaTrace struct {
	spans    *spanLog
	alloc    allocStats
	episodes int
	run      time.Duration
	register time.Duration
	counters counterDelta
}

// sabaEpisode is one core.RunJobs co-run.
type sabaEpisode struct {
	res    core.Result
	flows  uint64    // flow completions
	active int       // flows still active after the run
	cpu    float64   // CPU seconds the co-run took
	jobLat []float64 // per job: estimated CPU seconds until its completion
	err    error
}

var flowCompletions = telemetry.Default.Counter("netsim.flow_completions")

// episode plays one co-run under PolicySaba. tr is nil for an untraced
// episode.
func (env *sabaEnv) episode(cr *coRun, op int64, tr *sabaTrace) sabaEpisode {
	var ep sabaEpisode
	var eng *netsim.Engine
	var spans *spanLog
	var epID int64
	var runStart, regEnd time.Time
	var runCPU time.Duration
	start, cpu0 := time.Now(), cpuClock()
	// BeforeRun is called once, before the engine starts: the untraced
	// engine runs exactly as core.RunJobs sets it up, with no hook.
	cfg := core.RunConfig{
		Policy: core.PolicySaba, Table: cr.table, Seed: cr.seed, PLs: 16, SimBaseline: true,
		BeforeRun: func(e *netsim.Engine) error {
			eng = e
			if tr != nil {
				e.SetAllocator(probeAllocator(e.Allocator(), &tr.alloc))
			}
			runStart, runCPU = time.Now(), cpuClock()
			return nil
		},
	}
	if tr != nil {
		spans = tr.spans
		epID = spans.id()
		cfg.AfterRegister = func(controller.API, []netsim.AppID) error {
			regEnd = time.Now()
			return nil
		}
		tr.counters.begin()
	}
	c0 := flowCompletions.Value()
	ep.res, ep.err = core.RunJobs(env.top, cr.jobs, cfg)
	end, endCPU := time.Now(), cpuClock()
	ep.cpu = (endCPU - cpu0).Seconds()
	ep.flows = flowCompletions.Value() - c0
	if eng != nil {
		ep.active = eng.Network().NumActive()
	}
	ep.jobLat = jobLatencies(ep.res.Completions, runCPU-cpu0, endCPU-runCPU)
	if tr != nil && ep.err == nil {
		tr.counters.end()
		tr.episodes++
		tr.run += end.Sub(runStart)
		tr.register += regEnd.Sub(start)
		spans.add(spans.id(), epID, op, "controller.register_phase", start, regEnd)
		spans.add(spans.id(), epID, op, "netsim.run", runStart, end)
		spans.add(epID, 0, op, "episode", start, end)
	}
	return ep
}

// jobLatencies estimates each job's latency from core.RunJobs entry
// without hooking the engine: the time before the run (registration,
// enforcement, PL refresh) plus the run's time scaled by the job's share
// of the makespan, as if the run advanced virtual time at a steady rate.
// The times are on the CPU clock.
func jobLatencies(completions []float64, before, run time.Duration) []float64 {
	makespan := 0.0
	for _, c := range completions {
		makespan = max(makespan, c)
	}
	lat := make([]float64, len(completions))
	for j, c := range completions {
		lat[j] = before.Seconds()
		if makespan > 0 {
			lat[j] += run.Seconds() * c / makespan
		}
	}
	return lat
}

// completionDigest folds the jobs' completion times, FNV-style.
func completionDigest(c []float64) uint64 {
	d := uint64(14695981039346656037)
	for _, v := range c {
		d = (d ^ math.Float64bits(v)) * 1099511628211
	}
	return d
}

// runSaba measures the saba workload: whole cycles of the co-runs under
// PolicySaba, back to back (see playing), then an untimed FECN run of
// each co-run's placement as the speedup baseline. A traced run plays
// every co-run twice in a row, untraced then traced.
func runSaba(p sabaParams, rc runConfig) (*outcome, error) {
	env, st, err := repeatSetup(p.SetupReps, rc.spans, func(t *setupTimer) (*sabaEnv, error) {
		return buildSabaEnv(p, rc.Seed, t)
	}, func(*sabaEnv) {})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.Manifest["topology"] = p.Topology
	out.Manifest["hosts"] = len(env.top.Hosts())
	out.Manifest["co_runs"] = p.CoRuns
	out.Manifest["apps"] = p.Apps
	out.Manifest["setup_reps"] = p.SetupReps
	out.E2E.set("setup_s", median(st.totals), "s")

	var tr *sabaTrace
	if rc.Trace {
		tr = &sabaTrace{spans: rc.spans, counters: newCounterDelta(append(simSources(), ctrlSources()...)...)}
	}
	mem := startMemDelta()
	jobLat := make([][][]float64, len(env.coRuns)) // co-run → job → untraced plays
	plays := newPlayLog(len(env.coRuns))
	digests := make([]uint64, len(env.coRuns))
	completions := make([][]float64, len(env.coRuns)) // first play of each co-run
	episodes, cycle := 0, len(env.coRuns)
	if tr != nil {
		cycle *= 2
	}
	start := time.Now()
	deadline := start.Add(rc.duration())
	for k := 0; playing(k, len(env.coRuns), cycle, start, deadline); k++ {
		episodes++
		i, traced := k%len(env.coRuns), false
		if tr != nil {
			i, traced = (k/2)%len(env.coRuns), k%2 == 1
		}
		cr := env.coRuns[i]
		var ep sabaEpisode
		if traced {
			ep = env.episode(cr, int64(k+1), tr)
		} else {
			ep = env.episode(cr, int64(k+1), nil)
		}
		if p.dropJob && k == 0 && len(ep.res.Completions) > 0 {
			ep.res.Completions[0] = 0
		}
		out.Attempted += int64(ep.flows) + int64(ep.active)
		out.Failed += int64(ep.active)
		if ep.err != nil {
			out.Failed++
			out.Attempted++
			out.fail("episode %d: %v", k, ep.err)
			continue
		}
		if ep.active != 0 {
			out.fail("episode %d: %d admitted flows never completed", k, ep.active)
		}
		for j, c := range ep.res.Completions {
			if !(c > 0) {
				out.Failed++
				out.fail("episode %d: job %d (%s) has no completion", k, j, cr.jobs[j].Spec.Name)
			}
		}
		// A replayed co-run must complete every job at the same virtual
		// time, traced or not.
		d := completionDigest(ep.res.Completions)
		if completions[i] == nil {
			digests[i], completions[i] = d, ep.res.Completions
		} else if d != digests[i] {
			out.Failed += int64(ep.flows)
			out.fail("episode %d: completion digest %016x differs from the first play's %016x", k, d, digests[i])
		}
		plays.add(i, traced, float64(ep.flows), ep.cpu)
		if !traced {
			if jobLat[i] == nil {
				jobLat[i] = make([][]float64, len(ep.jobLat))
			}
			for j, v := range ep.jobLat {
				jobLat[i][j] = append(jobLat[i][j], v)
			}
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.E2E.set("peak_rss_mb", rss, "MB")
	out.E2E.set("ops_per_s", plays.rate(false), "1/s")
	// Each job counts once, at the median of its plays, as ops_per_s
	// counts each co-run; all jobs form one window, since a co-run's
	// twenty are too few to window.
	var lat []float64
	for _, jobs := range jobLat {
		for _, plays := range jobs {
			lat = append(lat, median(plays))
		}
	}
	ls := summarize([][]float64{lat})
	out.E2E.set("op_p50_ms", ls.P50, "ms")
	out.E2E.set("op_tail_ms", ls.Tail, "ms")
	out.Report["op"] = "ops_per_s counts flow completions per CPU second; latency is per job, the median over its plays of: CPU time from core.RunJobs entry to the engine's start, plus the run's CPU time times the job's completion over the makespan"
	out.Report["latency"] = ls
	out.Report["digest"] = fmt.Sprintf("%016x", digests[0])
	out.Report["episodes"] = episodes
	out.Report["cycles"] = episodes / cycle
	out.Report["setup_reps_s"] = st.totals

	setupLayers(out.Layers, st)
	if tr != nil && tr.episodes > 0 {
		n := float64(tr.episodes)
		out.Layers.set("netsim.run_s", tr.run.Seconds()/n, "s")
		out.Layers.set("netsim.self_s", (tr.run-tr.alloc.union).Seconds()/n, "s")
		out.Layers.set("controller.register_phase_s", tr.register.Seconds()/n, "s")
		tr.alloc.report(out.Layers, n)
		tr.counters.report(out.Layers, n, simCounterNames...)
		reportCtrl(out.Layers, &tr.counters, n)
		mem.report(out.Layers)
		out.Layers.set("trace.overhead_pct", overheadPct(plays.rate(false), plays.rate(true)), "%")
	}

	// Output check: Saba must beat the FECN baseline on the same
	// placements. The baseline runs are after the timed phase and untimed.
	sum, jobs := 0.0, 0
	for i, cr := range env.coRuns {
		if completions[i] == nil {
			continue
		}
		base, err := core.RunJobs(env.top, cr.jobs, core.RunConfig{
			Policy: core.PolicyBaseline, Seed: cr.seed, PLs: 16, SimBaseline: true,
		})
		if err != nil {
			out.fail("fecn baseline of co-run %d: %v", i, err)
			continue
		}
		for j, c := range completions[i] {
			sum += base.Completions[j] / c
			jobs++
		}
	}
	if jobs > 0 {
		speedup := sum / float64(jobs)
		out.Report["mean_speedup_vs_fecn"] = speedup
		if !(speedup > 1) {
			out.fail("saba mean job speedup %.4f over FECN is not above 1", speedup)
		}
	}
	return out, nil
}
