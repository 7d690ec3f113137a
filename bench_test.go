// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per experiment, at scales that keep `go test -bench=.`
// tractable. Each benchmark logs the experiment's rendered result on the
// first iteration, so a bench run doubles as a results report; cmd/sabaexp
// prints the same studies at paper-sized parameters.
package saba_test

import (
	"testing"
	"time"

	"saba/internal/experiments"
)

// logOnce renders an experiment result into the bench log on the first
// iteration only.
func logOnce(b *testing.B, i int, v interface{ String() string }) {
	b.Helper()
	if i == 0 {
		b.Log("\n" + v.String())
	}
}

// BenchmarkFig1aSensitivity regenerates Fig. 1a: standalone slowdown of
// the ten Table-1 workloads at 75% and 25% bandwidth.
func BenchmarkFig1aSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1a()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig1bSkewed regenerates Fig. 1b: LR+PR co-run under max-min
// versus the 75/25 skewed allocation.
func BenchmarkFig1bSkewed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1b()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig2Utilization regenerates Fig. 2: CPU/network utilization
// timelines of LR and PR at 75% and 25% bandwidth.
func BenchmarkFig2Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"LR", "PR"} {
			for _, bw := range []float64{0.75, 0.25} {
				r, err := experiments.Fig2(name, bw)
				if err != nil {
					b.Fatal(err)
				}
				logOnce(b, i, r)
			}
		}
	}
}

// BenchmarkFig5Models regenerates Fig. 5: SQL and LR sensitivity models
// at polynomial degrees 1-3.
func BenchmarkFig5Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig6aDegree regenerates Fig. 6a: R² versus polynomial degree.
func BenchmarkFig6aDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6a()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig6bDataset regenerates Fig. 6b: R² versus runtime dataset
// size (0.1x / 1x / 10x).
func BenchmarkFig6bDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6b()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig6cNodes regenerates Fig. 6c: R² versus runtime node count
// (0.5x .. 4x).
func BenchmarkFig6cNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6c()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig8aTestbed regenerates Fig. 8a: Saba versus the baseline
// over randomized 16-job setups on the 32-server testbed (paper: 500
// setups, avg 1.88x; the bench runs 5 per iteration).
func BenchmarkFig8aTestbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(5, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig8bCDF regenerates Fig. 8b: the CDF of per-setup average
// speedups (distribution summary over the same study).
func BenchmarkFig8bCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(8, experiments.DefaultSeed+1)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.CDF) == 0 {
			b.Fatal("empty CDF")
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig9aDataset regenerates Fig. 9a: Saba speedup versus runtime
// dataset size.
func BenchmarkFig9aDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(experiments.Fig9Dataset, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig9bNodes regenerates Fig. 9b: Saba speedup versus runtime
// node count.
func BenchmarkFig9bNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(experiments.Fig9Nodes, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig9cDegree regenerates Fig. 9c: Saba speedup versus the
// polynomial degree used by the profiler.
func BenchmarkFig9cDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(experiments.Fig9Degree, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig10AtScale regenerates Fig. 10: Saba, ideal max-min, Homa
// and Sincronia against the simulated baseline on the spine-leaf fabric.
func BenchmarkFig10AtScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(experiments.ScaleConfig{})
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig10AtScaleSharded is the same workload with one engine
// shard per pod instead of one. Compare allocs/op against the benchmark
// above: the recompute hot path is allocation-free, so the two should
// stay within a fraction of a percent of each other — the residual is
// fixed per-engine setup (barrier, worker mailboxes, per-shard gauges
// and heaps) that amortizes with run length.
func BenchmarkFig10AtScaleSharded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(experiments.ScaleConfig{EngineShards: -1})
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig11aControllers regenerates Fig. 11a: centralized versus
// distributed controller.
func BenchmarkFig11aControllers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11a(experiments.ScaleConfig{})
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig11bQueues regenerates Fig. 11b: Saba speedup versus the
// per-port queue count (2, 4, 8, 16, unlimited).
func BenchmarkFig11bQueues(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11b(experiments.ScaleConfig{})
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFig12Overhead regenerates Fig. 12: the centralized
// controller's weight-calculation time versus the active-application
// count and model degree.
func BenchmarkFig12Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(experiments.Fig12Config{
			AppCounts: []int{50, 250},
			Scenarios: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkAblationComputeStretch measures how the headline Fig. 8
// comparison responds to co-location compute dilation (the paper pins
// each job to one core; the stretch knob models weaker or stronger
// dilation). This is the ablation DESIGN.md calls out for the
// contention-regime design choice.
func BenchmarkAblationComputeStretch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationComputeStretch([]float64{1, 2, 4}, 2, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkAblationBaselineSeverity sweeps the baseline's crowding
// penalty: how much of Saba's testbed win comes from escaping the shared
// queue versus from sensitivity weighting.
func BenchmarkAblationBaselineSeverity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationBaselineSeverity(2, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}

// BenchmarkFigOverload runs the arrival-storm admission study at a
// reduced scale: an open-loop 2x-capacity Poisson storm against the
// admission-controlled centralized controller on a virtual clock. Seed 1
// matches the gated FigOverload cell of sabaexp -bench-json.
func BenchmarkFigOverload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.FigOverload(experiments.OverloadConfig{
			Loads:    []float64{2},
			Duration: 2 * time.Second,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r)
	}
}
