// Command sabaexp regenerates the paper's tables and figures.
//
// Usage:
//
//	sabaexp -fig all            # every study at reduced scale
//	sabaexp -fig 8 -setups 500  # the paper-sized testbed study
//	sabaexp -fig 10 -full       # the 1,944-server simulation
//	sabaexp -fig 2 -out dir     # write the Fig. 2 timelines as CSV
//	sabaexp -bench-json BENCH_netsim.json            # machine-readable bench
//	sabaexp -bench-json out.json -bench-baseline BENCH_netsim.json
//	                            # regression gate: fail on >30% events/sec drop
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"saba/internal/experiments"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1a,1b,2,5,6a,6b,6c,8,9a,9b,9c,10,11a,11b,12,churn,drift,decentral,hyperscale,overload,all")
	setups := flag.Int("setups", 25, "cluster setups for fig 8 (paper: 500)")
	seed := flag.Int64("seed", experiments.DefaultSeed, "experiment seed")
	full := flag.Bool("full", false, "paper-scale parameters for the simulation studies")
	shards := flag.Int("shards", 0, "simulation engine sharding (netsim.Engine.SetShards): -1 = one shard per pod, 1 = one shard, 0 = the study's default (one shard; one per pod for hyperscale)")
	out := flag.String("out", "", "directory for CSV outputs (fig 2)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for independent experiment cells; 1 forces serial execution (results are identical at any setting)")
	showMetrics := flag.Bool("metrics", false, "print the final telemetry snapshot as JSON")
	benchJSON := flag.String("bench-json", "", "run the simulator benchmark suite and write results as JSON to this file")
	benchBaseline := flag.String("bench-baseline", "", "compare fresh bench results against this baseline JSON; exit nonzero on regression")
	profileDir := flag.String("profile", "", "enable mutex and block profiling and write mutex.pprof/block.pprof to this directory after the run (contention smoke for the sharded engine)")
	flag.Parse()
	if *shards < -1 || *shards > 1 {
		fmt.Fprintf(os.Stderr, "sabaexp: -shards %d: want -1 (one shard per pod), 0 (default) or 1 (one shard)\n", *shards)
		os.Exit(2)
	}
	experiments.SetParallelism(*parallel)
	if *profileDir != "" {
		// Sample mutex contention (1 in 5 events) and every blocking event
		// ≥ 1µs: cheap enough to leave on for a whole study, detailed
		// enough to show the worker pool's phase join gone hot.
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(1000)
	}

	if *benchJSON != "" || *benchBaseline != "" {
		err := runBenchJSON(*benchJSON, *benchBaseline)
		if *profileDir != "" {
			if perr := writeProfiles(*profileDir); err == nil {
				err = perr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sabaexp:", err)
			os.Exit(1)
		}
		return
	}

	err := run(*fig, *setups, *seed, *full, *out, *shards)
	if *showMetrics {
		if merr := printMetrics(); err == nil {
			err = merr
		}
	}
	if *profileDir != "" {
		if perr := writeProfiles(*profileDir); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sabaexp:", err)
		os.Exit(1)
	}
}

// writeProfiles dumps the accumulated mutex and block profiles — the
// contention picture of the sharded engine's worker pool and barrier —
// to dir as pprof files.
func writeProfiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"mutex", "block"} {
		p := pprof.Lookup(name)
		if p == nil {
			continue
		}
		path := filepath.Join(dir, name+".pprof")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := p.WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// printMetrics dumps the process-wide telemetry snapshot so runs can be
// diffed (solver time, simulator event counts) across policies or seeds.
func printMetrics() error {
	b, err := telemetry.Default.Snapshot().MarshalJSONIndent()
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func run(fig string, setups int, seed int64, full bool, out string, shards int) error {
	scale := experiments.ScaleConfig{Seed: seed, Full: full, EngineShards: shards}
	type study struct {
		name string
		fn   func() error
	}
	show := func(v fmt.Stringer, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(v.String())
		return nil
	}
	studies := []study{
		{"1a", func() error { r, err := experiments.Fig1a(); return show(r, err) }},
		{"1b", func() error { r, err := experiments.Fig1b(); return show(r, err) }},
		{"2", func() error { return fig2(out) }},
		{"5", func() error { r, err := experiments.Fig5(); return show(r, err) }},
		{"6a", func() error { r, err := experiments.Fig6a(); return show(r, err) }},
		{"6b", func() error { r, err := experiments.Fig6b(); return show(r, err) }},
		{"6c", func() error { r, err := experiments.Fig6c(); return show(r, err) }},
		{"8", func() error { r, err := experiments.Fig8(setups, seed); return show(r, err) }},
		{"9a", func() error { r, err := experiments.Fig9(experiments.Fig9Dataset, seed); return show(r, err) }},
		{"9b", func() error { r, err := experiments.Fig9(experiments.Fig9Nodes, seed); return show(r, err) }},
		{"9c", func() error { r, err := experiments.Fig9(experiments.Fig9Degree, seed); return show(r, err) }},
		{"10", func() error { r, err := experiments.Fig10(scale); return show(r, err) }},
		{"11a", func() error { r, err := experiments.Fig11a(scale); return show(r, err) }},
		{"11b", func() error { r, err := experiments.Fig11b(scale); return show(r, err) }},
		{"churn", func() error {
			r, err := experiments.FigChurn(experiments.ChurnConfig{Scale: scale})
			return show(r, err)
		}},
		{"drift", func() error {
			r, err := experiments.FigDrift(experiments.DriftStudyConfig{Seed: seed})
			return show(r, err)
		}},
		{"decentral", func() error {
			r, err := experiments.FigDecentral(experiments.DecentralStudyConfig{Scale: scale})
			return show(r, err)
		}},
		{"overload", func() error {
			cfg := experiments.OverloadConfig{Seed: seed}
			if full {
				// Paper-scale storm: a longer horizon and a denser sweep.
				cfg.Duration = 60 * time.Second
				cfg.Loads = []float64{0.5, 1, 1.5, 2, 3, 4}
			}
			r, err := experiments.FigOverload(cfg)
			return show(r, err)
		}},
		{"hyperscale", func() error {
			cfg := experiments.HyperscaleConfig{Seed: seed, Shards: shards}
			if fig == "all" {
				// Reduced shape for the all-studies sweep; the 10k-host
				// default runs when the study is requested by name.
				cfg.Topology = topology.SpineLeafConfig{
					Pods: 4, ToRsPerPod: 4, LeavesPerPod: 2, Spines: 2,
					HostsPerToR: 10, Queues: 16,
				}
				cfg.Waves = 10
				cfg.FlowsPerWave = 256
				cfg.CompareSerial = true
			}
			r, err := experiments.FigHyperscale(cfg)
			return show(r, err)
		}},
		{"12", func() error {
			cfg := experiments.Fig12Config{Seed: seed}
			if !full {
				cfg.AppCounts = []int{50, 250}
				cfg.Scenarios = 5
			}
			r, err := experiments.Fig12(cfg)
			return show(r, err)
		}},
	}
	ran := false
	for _, s := range studies {
		if fig == "all" || fig == s.name {
			if err := s.fn(); err != nil {
				return fmt.Errorf("fig %s: %w", s.name, err)
			}
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

// fig2 renders the four utilization timelines; with -out they are also
// written as CSV files.
func fig2(out string) error {
	for _, name := range []string{"LR", "PR"} {
		for _, bw := range []float64{0.75, 0.25} {
			r, err := experiments.Fig2(name, bw)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			if out == "" {
				continue
			}
			if err := os.MkdirAll(out, 0o755); err != nil {
				return err
			}
			path := filepath.Join(out, fmt.Sprintf("fig2_%s_%.0f.csv", name, bw*100))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			fmt.Fprintln(f, "time_s,cpu_pct,net_pct")
			for _, p := range r.Series {
				fmt.Fprintf(f, "%.2f,%.2f,%.2f\n", p.Time, p.CPU, p.Net)
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	return nil
}
