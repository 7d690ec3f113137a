// Package core is Saba's top-level harness: it wires a topology, the
// fluid network simulator, a bandwidth-allocation policy, the controller
// (for the Saba policies) and a set of workload jobs into one run, and
// reports per-job completion times. Every experiment of the paper's
// evaluation is a thin loop over this package.
package core

import (
	"errors"
	"fmt"

	"saba/internal/controller"
	"saba/internal/decentral"
	"saba/internal/netsim"
	"saba/internal/profiler"
	"saba/internal/sabalib"
	"saba/internal/solver"
	"saba/internal/topology"
	"saba/internal/workload"
)

// Policy selects the bandwidth-allocation discipline of a run.
type Policy int

// Policies under study (paper §8).
const (
	// PolicyBaseline is InfiniBand's FECN congestion management — the
	// paper's testbed baseline.
	PolicyBaseline Policy = iota
	// PolicyIdealMaxMin is the idealized per-flow max-min upper bound.
	PolicyIdealMaxMin
	// PolicySaba is Saba with the centralized controller.
	PolicySaba
	// PolicySabaDistributed is Saba with the distributed controller mesh.
	PolicySabaDistributed
	// PolicyHoma is the flow-size-priority transport (study 5).
	PolicyHoma
	// PolicySincronia is the clairvoyant coflow scheduler (study 6).
	PolicySincronia
	// PolicySabaDecentral is Saba with no controller at all: hosts
	// self-adjust toward the Eq. 2 weights from broadcast telemetry
	// signals (the Söze-style deployment mode).
	PolicySabaDecentral
)

func (p Policy) String() string {
	switch p {
	case PolicyBaseline:
		return "baseline"
	case PolicyIdealMaxMin:
		return "ideal-maxmin"
	case PolicySaba:
		return "saba"
	case PolicySabaDistributed:
		return "saba-distributed"
	case PolicyHoma:
		return "homa"
	case PolicySincronia:
		return "sincronia"
	case PolicySabaDecentral:
		return "saba-decentral"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// JobSpec is one job of a run: a workload placed on concrete hosts.
type JobSpec struct {
	Spec         workload.Spec
	DatasetScale float64 // 0 selects 1
	Nodes        []topology.NodeID
}

// RunConfig parameterizes RunJobs.
type RunConfig struct {
	Policy Policy
	// Table is the sensitivity table (required for the Saba policies).
	Table *profiler.Table
	// PLs is the priority-level count for the Saba policies; 0 → 16.
	PLs int
	// CSaba is the capacity fraction managed by Saba; 0 → 1.
	CSaba float64
	// Shards is the distributed-controller shard count; 0 → 4.
	Shards int
	// EngineShards selects the simulation engine's event-loop sharding,
	// passed to netsim.Engine.SetShards verbatim: 0 or 1 runs one shard,
	// -1 one shard per fabric partition (pod); both produce identical
	// results. Distinct from Shards, which shards the distributed
	// controller mesh, not the simulator.
	EngineShards int
	// FECNEfficiency tunes the baseline's congested-link utilization;
	// 0 → netsim.DefaultFECNEfficiency.
	FECNEfficiency float64
	// SimBaseline selects the packet-simulator congestion model for the
	// baseline (mild losses) instead of the hardware-testbed profile —
	// the large-scale studies (Fig. 10/11) compare against the former.
	SimBaseline bool
	// FanOut bounds per-node shuffle partners; 0 → workload.DefaultFanOut.
	FanOut int
	// ComputeStretch multiplies every job's compute time relative to its
	// profiled (dedicated-node) speed — the paper's testbed studies pin
	// each job to one of the 16 cores per server, so they pass 16.
	// 0 → 1 (dedicated).
	ComputeStretch float64
	// Horizon bounds simulated time in seconds; 0 → 1e7.
	Horizon float64
	// Seed drives the controller's clustering determinism.
	Seed int64
	// FullRecompute disables the engine's scoped (dirty-component) rate
	// recomputation, forcing a global allocator pass after every change —
	// the escape hatch for validating the incremental path against the
	// reference behavior.
	FullRecompute bool
	// BeforeRun, when set, is invoked on the fully assembled engine just
	// before the simulation starts — the hook churn experiments use to
	// install fault schedules (faults.InstallLinkFlaps).
	BeforeRun func(*netsim.Engine) error
	// Drift parameterizes the centralized controller's profile-drift
	// quarantine and online learner. The zero value keeps the defaults.
	Drift controller.DriftConfig
	// AfterRegister, when set, is invoked once every application has
	// registered (and announced its connections) but before any job
	// starts. apps[i] is job i's controller-assigned ID. The drift
	// experiment uses it to pre-quarantine stale-profile apps.
	AfterRegister func(ctrl controller.API, apps []netsim.AppID) error
}

// Result reports a run.
type Result struct {
	Policy Policy
	// Completions[i] is the completion time (seconds) of jobs[i].
	Completions []float64
	// Makespan is the completion time of the last job.
	Makespan float64
	// ControllerCalc is the most recent weight-calculation time for
	// centralized Saba runs (zero otherwise).
	ControllerCalc float64
}

// ErrNoJobs is returned when RunJobs is invoked without jobs.
var ErrNoJobs = errors.New("core: no jobs")

// RunJobs executes the jobs concurrently from t=0 on the topology under
// the configured policy and returns their completion times.
func RunJobs(top *topology.Topology, jobs []JobSpec, cfg RunConfig) (Result, error) {
	if len(jobs) == 0 {
		return Result{}, ErrNoJobs
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 1e7
	}
	net := netsim.NewNetwork(top)

	var alloc netsim.Allocator
	var ctrl controller.API
	var dec *netsim.Decentral
	var decChannel *decentral.Channel
	switch cfg.Policy {
	case PolicyBaseline:
		fecn := netsim.NewFECN(net, cfg.FECNEfficiency)
		if cfg.SimBaseline {
			fecn.SimProfile()
		}
		alloc = fecn
	case PolicyIdealMaxMin:
		alloc = netsim.NewIdealMaxMin(net)
	case PolicyHoma:
		alloc = netsim.NewHoma(net, nil)
	case PolicySincronia:
		alloc = netsim.NewSincronia(net)
	case PolicySaba:
		if cfg.Table == nil {
			return Result{}, errors.New("core: Saba policy requires a sensitivity table")
		}
		wfq := netsim.NewWFQ(net)
		c, err := controller.NewCentralized(controller.Config{
			Topology: top,
			Table:    cfg.Table,
			Enforcer: wfq,
			PLs:      cfg.PLs,
			CSaba:    cfg.CSaba,
			Seed:     cfg.Seed,
			Drift:    cfg.Drift,
		})
		if err != nil {
			return Result{}, err
		}
		alloc, ctrl = wfq, c
	case PolicySabaDistributed:
		if cfg.Table == nil {
			return Result{}, errors.New("core: Saba policy requires a sensitivity table")
		}
		wfq := netsim.NewWFQ(net)
		pls := cfg.PLs
		if pls == 0 {
			pls = 16
		}
		db, err := controller.BuildMappingDB(cfg.Table, pls, minQueues(top), cfg.Seed)
		if err != nil {
			return Result{}, err
		}
		shards := cfg.Shards
		if shards == 0 {
			shards = 4
		}
		mesh, err := controller.NewMesh(top, db, wfq, shards, cfg.CSaba, 0)
		if err != nil {
			return Result{}, err
		}
		alloc, ctrl = wfq, mesh
	case PolicySabaDecentral:
		if cfg.Table == nil {
			return Result{}, errors.New("core: Saba policy requires a sensitivity table")
		}
		dec = netsim.NewDecentral(net, netsim.DecentralConfig{
			Params: decentral.Params{Total: cfg.CSaba},
		})
		decChannel = decentral.NewChannel()
		dec.SetChannel(decChannel)
		alloc = dec
	default:
		return Result{}, fmt.Errorf("core: unknown policy %d", cfg.Policy)
	}

	e := netsim.NewEngine(net, alloc)
	e.SetFullRecompute(cfg.FullRecompute)
	e.SetShards(cfg.EngineShards)
	res := Result{Policy: cfg.Policy, Completions: make([]float64, len(jobs))}

	type jobCtl struct {
		lib   *sabalib.Library
		conns []*sabalib.Conn
	}
	ctls := make([]jobCtl, len(jobs))
	jobRefs := make([]*workload.Job, len(jobs))

	var runErr error
	remaining := len(jobs)
	for i, js := range jobs {
		if len(js.Nodes) == 0 {
			return Result{}, fmt.Errorf("core: job %d (%s) has no nodes", i, js.Spec.Name)
		}
		i := i
		j := &workload.Job{
			ID:             i + 1,
			Spec:           js.Spec,
			Nodes:          js.Nodes,
			App:            netsim.AppID(i + 1),
			DatasetScale:   js.DatasetScale,
			FanOut:         cfg.FanOut,
			ComputeStretch: cfg.ComputeStretch,
		}
		jobRefs[i] = j
		if ctrl != nil {
			// The real registration path: the Saba library registers the
			// application, learns its PL, and announces every connection
			// the shuffle will use (they persist across stages, like
			// Spark's shuffle connections).
			lib := sabalib.New(&sabalib.DirectTransport{API: ctrl})
			if err := lib.Register(js.Spec.Name); err != nil {
				return Result{}, err
			}
			app, _ := lib.App()
			j.App = app
			for _, pair := range shufflePairs(js.Nodes, cfg.FanOut) {
				conn, err := lib.ConnCreate(pair[0], pair[1])
				if err != nil {
					return Result{}, err
				}
				ctls[i].conns = append(ctls[i].conns, conn)
			}
			ctls[i].lib = lib
		} else if dec != nil {
			// Controller-free registration: the library is transportless —
			// Fig. 7's calls resolve locally — and the allocator learns the
			// application's sensitivity model the way hosts would announce
			// it (a one-time broadcast, not a hot-path RPC).
			obj := decentralObjective(cfg.Table, js.Spec.Name)
			dec.SetObjective(j.App, obj)
			lib := sabalib.NewDecentral(sabalib.Options{
				Decentral: &sabalib.DecentralOptions{
					Source:    decChannel,
					Objective: obj,
					Params:    decentral.Params{Total: cfg.CSaba},
					Now:       func() float64 { return e.Now() },
				},
			})
			if err := lib.Register(js.Spec.Name); err != nil {
				return Result{}, err
			}
			if err := lib.EnterDecentral(); err != nil {
				return Result{}, err
			}
			for _, pair := range shufflePairs(js.Nodes, cfg.FanOut) {
				conn, err := lib.ConnCreate(pair[0], pair[1])
				if err != nil {
					return Result{}, err
				}
				ctls[i].conns = append(ctls[i].conns, conn)
			}
			ctls[i].lib = lib
		}
		j.OnDone = func(e *netsim.Engine, j *workload.Job) {
			res.Completions[i] = j.CompletionTime()
			remaining--
			if c := ctls[i]; c.lib != nil {
				for _, conn := range c.conns {
					if err := conn.Destroy(); err != nil && runErr == nil {
						runErr = fmt.Errorf("core: conn destroy: %w", err)
					}
				}
				if err := c.lib.Deregister(); err != nil && runErr == nil {
					runErr = fmt.Errorf("core: deregister: %w", err)
				}
				e.MarkDirty()
			}
		}
	}

	if cfg.AfterRegister != nil && ctrl != nil {
		apps := make([]netsim.AppID, len(jobRefs))
		for i, j := range jobRefs {
			apps[i] = j.App
		}
		if err := cfg.AfterRegister(ctrl, apps); err != nil {
			return Result{}, fmt.Errorf("core: after-register hook: %w", err)
		}
	}

	// Start jobs only after every application has registered: late
	// registrations re-cluster PLs, so refresh each job's PL from the
	// controller before its flows are stamped.
	for i, j := range jobRefs {
		if ctls[i].lib != nil {
			pl, err := ctls[i].lib.RefreshPL()
			if err != nil {
				return Result{}, err
			}
			j.PL = pl
		}
		if err := j.Start(e); err != nil {
			return Result{}, err
		}
	}

	// Data-plane fault tolerance: when the controller can reconverge,
	// every applied failure/restore triggers path re-detection and port
	// re-enforcement, and the engine re-rates the fabric under the new
	// weights.
	if tc, ok := ctrl.(interface{ TopologyChanged() error }); ok {
		e.OnTopologyChange = func(e *netsim.Engine, _ uint64) {
			if err := tc.TopologyChanged(); err != nil && runErr == nil {
				runErr = fmt.Errorf("core: reconvergence: %w", err)
			}
			e.MarkDirty()
		}
	}
	// Controller-free deployments keep the telemetry channel alive with a
	// periodic heartbeat: the allocator re-broadcasts port utilization and
	// every library polls its share, exercising the host-side response
	// (and the staleness machinery) throughout the run. The sampler stops
	// rescheduling itself once all jobs are done so the engine can idle.
	if dec != nil {
		const beatPeriod = 0.5 // virtual seconds between broadcasts
		var beat func(*netsim.Engine)
		beat = func(e *netsim.Engine) {
			dec.Heartbeat(e.Network(), e.Now())
			for i := range ctls {
				if ctls[i].lib == nil {
					continue
				}
				if _, _, err := ctls[i].lib.DecentralShare(); err != nil && runErr == nil {
					runErr = fmt.Errorf("core: decentral share: %w", err)
				}
			}
			if remaining > 0 {
				if err := e.After(beatPeriod, beat); err != nil && runErr == nil {
					runErr = fmt.Errorf("core: heartbeat: %w", err)
				}
			}
		}
		if err := e.After(beatPeriod, beat); err != nil {
			return Result{}, fmt.Errorf("core: heartbeat: %w", err)
		}
	}
	if cfg.BeforeRun != nil {
		if err := cfg.BeforeRun(e); err != nil {
			return Result{}, fmt.Errorf("core: before-run hook: %w", err)
		}
	}

	if err := e.Run(cfg.Horizon); err != nil {
		return Result{}, fmt.Errorf("core: %s run: %w", cfg.Policy, err)
	}
	if runErr != nil {
		return Result{}, runErr
	}
	if remaining != 0 {
		return Result{}, fmt.Errorf("core: %d jobs never completed", remaining)
	}
	for _, c := range res.Completions {
		if c > res.Makespan {
			res.Makespan = c
		}
	}
	if cc, ok := ctrl.(*controller.Centralized); ok {
		res.ControllerCalc = cc.LastCalcDuration().Seconds()
	}
	return res, nil
}

// decentralObjective builds an application's sensitivity objective from
// the profiled table, with the controller's moderate default for
// unprofiled names — the same clamped-monotone envelope the centralized
// Eq. 2 solve uses, so both deployments optimize the identical model.
func decentralObjective(tab *profiler.Table, name string) solver.Objective {
	if entry, ok := tab.Get(name); ok && len(entry.Coeffs) > 0 {
		return solver.NewMonotonePoly(entry.Coeffs)
	}
	return solver.NewMonotonePoly(decentral.DefaultCoeffs)
}

// shufflePairs enumerates the (src, dst) connection pairs a job's shuffle
// uses: each node to its next fanOut ring neighbors (mirrors
// workload.Job's flow launch pattern).
func shufflePairs(nodes []topology.NodeID, fanOut int) [][2]topology.NodeID {
	n := len(nodes)
	if fanOut <= 0 {
		fanOut = workload.DefaultFanOut
	}
	if fanOut > n-1 {
		fanOut = n - 1
	}
	var pairs [][2]topology.NodeID
	for i, src := range nodes {
		for k := 1; k <= fanOut; k++ {
			pairs = append(pairs, [2]topology.NodeID{src, nodes[(i+k)%n]})
		}
	}
	return pairs
}

// minQueues returns the smallest per-port queue count in the topology.
func minQueues(top *topology.Topology) int {
	minQ := 0
	for _, n := range top.Nodes() {
		if n.Queues > 0 && (minQ == 0 || n.Queues < minQ) {
			minQ = n.Queues
		}
	}
	if minQ == 0 {
		minQ = 1
	}
	return minQ
}
