package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"saba/internal/experiments"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// benchHyperscale is the body shared by the FigHyperscale/cpuN matrix
// cells: the identical seeded workload, so any throughput difference
// between cells is attributable to the core count alone.
func benchHyperscale() error {
	_, err := experiments.FigHyperscale(experiments.HyperscaleConfig{
		Topology: topology.SpineLeafConfig{
			Pods: 8, ToRsPerPod: 8, LeavesPerPod: 4, Spines: 4,
			HostsPerToR: 20, Queues: 16,
		},
		Waves: 10, FlowsPerWave: 1024,
	})
	return err
}

// BenchResult is one benchmark's machine-readable outcome. EventsPerSec
// is the simulator's end-to-end throughput — discrete events processed
// per wall-clock second — the metric the CI regression gate tracks. Cpus
// records the GOMAXPROCS the cell ran under: the regression gate only
// compares cells whose (name, cpus) both match, so a single-core runner
// never judges a multi-core baseline row and vice versa.
type BenchResult struct {
	Name         string  `json:"name"`
	Cpus         int     `json:"cpus"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerOp  float64 `json:"events_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	// P99Seconds is an optional latency-tail metric a cell can report
	// alongside its throughput (the overload cell's enforcement-latency
	// p99, in virtual seconds). Absent (0) for throughput-only cells.
	P99Seconds float64 `json:"p99_seconds,omitempty"`
}

// BenchReport is the schema of BENCH_netsim.json.
type BenchReport struct {
	Benchmarks []BenchResult `json:"benchmarks"`
}

// maxEventsPerSecDrop is how far a benchmark's events/sec may fall below
// the committed baseline before the comparison fails. Machine-to-machine
// variance on shared CI runners is real; 30% is well past noise for a
// workload this long.
const maxEventsPerSecDrop = 0.30

// benchEntry is one benchmark: a body plus the telemetry counter whose
// per-second delta is its throughput metric. cpus, when positive, pins
// GOMAXPROCS for the cell's duration (restored afterwards) — the
// multi-core bench matrix runs the same workload as /cpu1 and /cpu4
// cells so parallel speedup is measured, not inferred.
type benchEntry struct {
	name    string
	counter string // defaults to the simulator event counter
	cpus    int    // 0 = run at the ambient GOMAXPROCS
	fn      func() error
	// p99, when set, is sampled after the cell's final iteration and
	// recorded as the result's P99Seconds.
	p99 func() float64
}

// buildBenchSuite assembles the benchmarks the JSON report covers.
//
// Fig10AtScale is the incremental engine's headline workload: 1,944
// hosts' worth of traffic on the reduced spine-leaf fabric across five
// allocation disciplines, measured in simulator events/sec.
//
// The ControllerEnforceAtScale trio times a full-fabric recomputation of
// the same enforcement scenario (see experiments.EnforceScenario) under
// three controller configurations — serial without the solution memo,
// parallel without it, and parallel with it — measured in ports
// configured/sec. Serial vs. parallel isolates the worker-pool win (on
// multi-core runners); parallel vs. parallel+cache isolates the
// cross-port memoization win.
func buildBenchSuite() ([]benchEntry, error) {
	var overloadP99 float64 // captured by the FigOverload cell's last run
	suite := []benchEntry{
		{name: "Fig10AtScale", fn: func() error {
			_, err := experiments.Fig10(experiments.ScaleConfig{})
			return err
		}},
		// The same workload with one event shard per pod instead of one.
		{name: "Fig10AtScale/sharded", fn: func() error {
			_, err := experiments.Fig10(experiments.ScaleConfig{EngineShards: -1})
			return err
		}},
		// A reduced-shape FigHyperscale (the 10k-host default belongs to
		// `-fig hyperscale`, not a bench loop): 1,280 hosts of pod-local
		// waves through the per-pod sharded event loops. Run as a
		// multi-core matrix — the identical workload pinned to one and to
		// four schedulable cores — so the persistent shard workers' wall-
		// clock win (and the single-core overhead of the machinery) are
		// both tracked. On runners with fewer hardware threads than the
		// pin, the /cpu4 cell still runs but measures oversubscribed
		// scheduling, not parallel speedup; the gate's like-for-like
		// (name, cpus) keying keeps such rows comparable across runs of
		// the same runner class.
		{name: "FigHyperscale/cpu1", cpus: 1, fn: benchHyperscale},
		{name: "FigHyperscale/cpu4", cpus: 4, fn: benchHyperscale},
		// The churn study at the 5% failure rate exercises the full fault
		// path (flap injection, disruption, rerouting, reconvergence) so a
		// regression in any of those layers shows up as lost events/sec.
		{name: "FigChurn", fn: func() error {
			_, err := experiments.FigChurn(experiments.ChurnConfig{Rates: []float64{0.05}})
			return err
		}},
		// The drift-recovery study drives the whole online-learning loop —
		// quarantine, ring fits, validation, promotion, and the recovery
		// simulation — so a slowdown in the learner or the extra solve-epoch
		// invalidations surfaces here.
		{name: "FigDrift", fn: func() error {
			_, err := experiments.FigDrift(experiments.DriftStudyConfig{})
			return err
		}},
		// The overload storm at 2x capacity: open-loop admission, the
		// degradation ladder and the flush/shed path, metered in arrivals
		// processed/sec. The cell additionally reports the controller's
		// enforcement-latency p99 (virtual seconds) so the latency tail is
		// tracked next to the throughput, not just asserted in tests.
		{name: "FigOverload", counter: "experiments.overload_ops",
			fn: func() error {
				r, err := experiments.FigOverload(experiments.OverloadConfig{
					Loads:    []float64{2},
					Duration: 2 * time.Second,
					Seed:     1,
				})
				if err != nil {
					return err
				}
				overloadP99 = r.Cells[0].P99Latency
				return nil
			},
			p99: func() float64 { return overloadP99 },
		},
		// One at-scale run under the telemetry-only allocator, measured in
		// decentralized price-iteration rounds/sec — the controller-free
		// hot path's cost (per-port AIMD iterations plus signal broadcast),
		// with zero controller RPCs to hide behind.
		{name: "DecentralConverge", counter: "decentral.rounds", fn: func() error {
			return experiments.RunDecentralAtScale(experiments.ScaleConfig{})
		}},
	}
	scenario, err := experiments.NewEnforceScenario()
	if err != nil {
		return nil, fmt.Errorf("enforce scenario: %w", err)
	}
	portsCounter := telemetry.Label("controller.ports_configured", "deploy", "centralized")
	for _, v := range []struct {
		suffix  string
		workers int
		noCache bool
	}{
		{"serial", 1, true},
		{"parallel", 0, true},
		{"parallel+cache", 0, false},
	} {
		bench, err := scenario.NewController(v.workers, v.noCache)
		if err != nil {
			return nil, fmt.Errorf("enforce bench %s: %w", v.suffix, err)
		}
		suite = append(suite, benchEntry{
			name:    "ControllerEnforceAtScale/" + v.suffix,
			counter: portsCounter,
			fn:      bench.Recompute,
		})
	}
	return suite, nil
}

// runBenchJSON runs the suite, writes the report to outPath, and — when
// baselinePath is set — fails if any benchmark's events/sec regressed.
func runBenchJSON(outPath, baselinePath string) error {
	report := BenchReport{}
	benchSuite, err := buildBenchSuite()
	if err != nil {
		return err
	}
	for _, bm := range benchSuite {
		counter := bm.counter
		if counter == "" {
			counter = "netsim.events"
		}
		events := telemetry.Default.Counter(counter)
		cpus := bm.cpus
		prev := 0
		if cpus > 0 {
			prev = runtime.GOMAXPROCS(cpus)
		} else {
			cpus = runtime.GOMAXPROCS(0)
		}
		var benchErr error
		var evDelta uint64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			start := events.Value()
			for i := 0; i < b.N; i++ {
				if err := bm.fn(); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
			evDelta = events.Value() - start
		})
		if prev > 0 {
			runtime.GOMAXPROCS(prev) // unpin before the next cell
		}
		if benchErr != nil {
			return fmt.Errorf("bench %s: %w", bm.name, benchErr)
		}
		res := BenchResult{
			Name:        bm.name,
			Cpus:        cpus,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			EventsPerOp: float64(evDelta) / float64(r.N),
		}
		if s := r.T.Seconds(); s > 0 {
			res.EventsPerSec = float64(evDelta) / s
		}
		if bm.p99 != nil {
			res.P99Seconds = bm.p99()
		}
		report.Benchmarks = append(report.Benchmarks, res)
		fmt.Printf("%s\t%d iters\t%.0f ns/op\t%d allocs/op\t%.0f events/op\t%.0f events/sec\n",
			res.Name, res.Iterations, res.NsPerOp, res.AllocsPerOp, res.EventsPerOp, res.EventsPerSec)
	}

	if outPath != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if err := os.WriteFile(outPath, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	if baselinePath != "" {
		return compareBaseline(report, baselinePath)
	}
	return nil
}

// compareBaseline checks the fresh report against a committed baseline,
// failing when any shared benchmark's events/sec dropped by more than
// maxEventsPerSecDrop. Benchmarks present on only one side are reported
// but not fatal, so the suite can grow without breaking old baselines.
func compareBaseline(fresh BenchReport, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench baseline: %w", err)
	}
	var base BenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("bench baseline %s: %w", path, err)
	}
	// Key on (name, cpus): a cell is only judged against a baseline row
	// measured at the same core count. Rows from baselines predating the
	// cpus field carry 0 and simply never match — reported, not fatal.
	key := func(b BenchResult) string { return fmt.Sprintf("%s@cpu%d", b.Name, b.Cpus) }
	baseBy := map[string]BenchResult{}
	for _, b := range base.Benchmarks {
		baseBy[key(b)] = b
	}
	var failed bool
	for _, f := range fresh.Benchmarks {
		b, ok := baseBy[key(f)]
		if !ok {
			fmt.Printf("%s (cpus=%d): no like-for-like baseline entry, skipping comparison\n", f.Name, f.Cpus)
			continue
		}
		if b.EventsPerSec <= 0 {
			fmt.Printf("%s: baseline has no events/sec, skipping comparison\n", f.Name)
			continue
		}
		ratio := f.EventsPerSec / b.EventsPerSec
		fmt.Printf("%s: %.0f events/sec vs baseline %.0f (%.2fx)\n",
			f.Name, f.EventsPerSec, b.EventsPerSec, ratio)
		if ratio < 1-maxEventsPerSecDrop {
			fmt.Printf("%s: REGRESSION: events/sec dropped %.0f%% (budget %.0f%%)\n",
				f.Name, (1-ratio)*100, maxEventsPerSecDrop*100)
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("bench regression against %s", path)
	}
	return nil
}
