package experiments

import (
	"testing"

	"saba/internal/workload"
)

func TestFig1aShape(t *testing.T) {
	r, err := Fig1a()
	if err != nil {
		t.Fatal(err)
	}
	lr := r.Slowdown["LR"]
	sort := r.Slowdown["Sort"]
	// Anchors from the paper: LR 1.3x@75%, 3.4x@25%; Sort ~1.1x@25%.
	if lr[1] < 3.0 || lr[1] > 3.8 {
		t.Errorf("LR slowdown@25%% = %.2f, want ~3.4", lr[1])
	}
	if lr[0] < 1.15 || lr[0] > 1.45 {
		t.Errorf("LR slowdown@75%% = %.2f, want ~1.3", lr[0])
	}
	if sort[1] > 1.25 {
		t.Errorf("Sort slowdown@25%% = %.2f, want ~1.1", sort[1])
	}
	// Sensitivity spread: every workload slowed more at 25% than 75%.
	for n, s := range r.Slowdown {
		if s[1] < s[0]-1e-9 {
			t.Errorf("%s: slowdown@25%% (%.2f) < @75%% (%.2f)", n, s[1], s[0])
		}
	}
	// Paper: average 25% slowdown ≈ 2.1x.
	if r.Mean25 < 1.8 || r.Mean25 > 2.4 {
		t.Errorf("mean slowdown@25%% = %.2f, want ~2.1", r.Mean25)
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}

func TestFig1bShape(t *testing.T) {
	r, err := Fig1b()
	if err != nil {
		t.Fatal(err)
	}
	// Qualitative shape: skewed helps LR substantially, costs PR little.
	if r.SkewedLR >= r.MaxMinLR {
		t.Errorf("skewed LR slowdown %.2f !< max-min %.2f", r.SkewedLR, r.MaxMinLR)
	}
	if r.SkewedPR > r.MaxMinPR*1.35 {
		t.Errorf("skewed PR slowdown %.2f degraded too much vs %.2f", r.SkewedPR, r.MaxMinPR)
	}
	// The average must improve (the §2.2 argument).
	if (r.SkewedLR+r.SkewedPR)/2 >= (r.MaxMinLR+r.MaxMinPR)/2 {
		t.Errorf("skewed average %.2f !< max-min average %.2f",
			(r.SkewedLR+r.SkewedPR)/2, (r.MaxMinLR+r.MaxMinPR)/2)
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}

func TestFig2Shapes(t *testing.T) {
	// LR (serial): no overlapped buckets. PR (overlapped): many.
	lr, err := Fig2("LR", 0.75)
	if err != nil {
		t.Fatal(err)
	}
	both := 0
	for _, p := range lr.Series {
		if p.CPU > 80 && p.Net > 80 {
			both++
		}
	}
	if both > len(lr.Series)/10 {
		t.Errorf("LR shows %d/%d overlapped buckets; expected nearly none", both, len(lr.Series))
	}

	pr, err := Fig2("PR", 0.75)
	if err != nil {
		t.Fatal(err)
	}
	both = 0
	for _, p := range pr.Series {
		if p.CPU > 80 && p.Net > 30 {
			both++
		}
	}
	if both < 5 {
		t.Errorf("PR shows only %d overlapped buckets; expected many", both)
	}

	// Fig 2's headline: reducing bandwidth 75%→25% stretches LR much more
	// than PR (paper: 2.59x vs 1.37x).
	lr25, err := Fig2("LR", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pr25, err := Fig2("PR", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	lrStretch := lr25.Completed / lr.Completed
	prStretch := pr25.Completed / pr.Completed
	if lrStretch < 2.0 {
		t.Errorf("LR 75→25%% stretch = %.2f, want ~2.6", lrStretch)
	}
	if prStretch > 1.7 {
		t.Errorf("PR 75→25%% stretch = %.2f, want ~1.4", prStretch)
	}
	if lrStretch <= prStretch {
		t.Error("LR must stretch more than PR")
	}
	if _, err := Fig2("nope", 0.5); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestFig5Models(t *testing.T) {
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SQL", "LR"} {
		if len(r.Samples[name]) == 0 {
			t.Fatalf("%s: no samples", name)
		}
		for k := 1; k <= 3; k++ {
			if r.Models[name][k].Degree() != k {
				t.Errorf("%s k=%d model has degree %d", name, k, r.Models[name][k].Degree())
			}
		}
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}

func TestFig6aDegreesImproveFit(t *testing.T) {
	r, err := Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range workload.Names() {
		v := r.R2[n]
		if v[2] < v[0]-1e-9 {
			t.Errorf("%s: R²(k=3)=%.3f < R²(k=1)=%.3f", n, v[2], v[0])
		}
		if v[2] < 0.55 {
			t.Errorf("%s: R²(k=3)=%.3f too low", n, v[2])
		}
	}
	// SQL's non-linearity: k=1 fit markedly worse than k=3 (paper: 0.63→0.96).
	sql := r.R2["SQL"]
	if sql[2]-sql[0] < 0.05 {
		t.Errorf("SQL R² gain k1→k3 = %.3f, expected a visible jump", sql[2]-sql[0])
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}

func TestFig6bDatasetDrift(t *testing.T) {
	r, err := Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range workload.Names() {
		v := r.R2[n]
		// Drifted scales stay predictive (the paper's point: R² above
		// 0.55 despite an order-of-magnitude dataset change; our band is
		// slightly wider because the simulated curves differ in range).
		if v[0] < 0.4 || v[2] < 0.4 {
			t.Errorf("%s: drifted R² too low: %.3f/%.3f", n, v[0], v[2])
		}
		if v[1] < 0.7 {
			t.Errorf("%s: matching-scale R² = %.3f", n, v[1])
		}
	}
	// Aggregate direction: the 10x drift costs accuracy on average.
	mean := func(idx int) float64 {
		s := 0.0
		for _, n := range workload.Names() {
			s += r.R2[n][idx]
		}
		return s / float64(len(workload.Names()))
	}
	if mean(2) >= mean(1) {
		t.Errorf("mean R² at 10x (%.3f) should fall below 1x (%.3f)", mean(2), mean(1))
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}

func TestFig6cNodeDrift(t *testing.T) {
	r, err := Fig6c()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range workload.Names() {
		v := r.R2[n]
		if len(v) != 5 {
			t.Fatalf("%s: %d scales", n, len(v))
		}
		// The 1x point is in-sample quality; drifted counts degrade
		// (some, like Sort at 4x, collapse below zero — the paper's 4x
		// cliff).
		if v[1] < 0.7 {
			t.Errorf("%s: R² at matching nodes = %.3f", n, v[1])
		}
		for i, x := range v {
			if x > 1+1e-9 {
				t.Errorf("%s: R² at %gx = %.3f > 1", n, r.NodeScales[i], x)
			}
		}
	}
	// Aggregate direction: mean R² at 4x below mean at 1x (Fig. 6c trend).
	mean := func(idx int) float64 {
		s := 0.0
		for _, n := range workload.Names() {
			s += r.R2[n][idx]
		}
		return s / float64(len(workload.Names()))
	}
	if mean(4) >= mean(1) {
		t.Errorf("mean R² at 4x (%.3f) should fall below 1x (%.3f)", mean(4), mean(1))
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}

func TestFig8SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("co-location study skipped in -short")
	}
	// The serial run the Fig8 differential proves equal to the parallel
	// one (TestSerialParallelExperimentsIdentical), computed once.
	r := fig8At(t, 1)
	if r.Speedups.Average < 1.1 {
		t.Errorf("average Saba speedup = %.2f, want > 1.1 (paper 1.88)", r.Speedups.Average)
	}
	// Sensitive beat insensitive.
	if r.Speedups.ByWorkload["LR"] <= r.Speedups.ByWorkload["Sort"] {
		t.Errorf("LR speedup (%.2f) must exceed Sort (%.2f)",
			r.Speedups.ByWorkload["LR"], r.Speedups.ByWorkload["Sort"])
	}
	if len(r.CDF) != 3 || r.Summary.N != 3 {
		t.Errorf("CDF/Summary sized wrong: %d/%d", len(r.CDF), r.Summary.N)
	}
	if _, err := Fig8(0, 1); err == nil {
		t.Error("zero setups should fail")
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}

func TestFig9DegreeStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity study skipped in -short")
	}
	r, err := Fig9(Fig9Degree, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Averages) != 3 {
		t.Fatalf("degree study has %d points", len(r.Averages))
	}
	for i, avg := range r.Averages {
		if avg < 1.0 {
			t.Errorf("degree %s: average %.2f < 1", r.Labels[i], avg)
		}
	}
	if _, err := Fig9(Fig9Mode(9), 1); err == nil {
		t.Error("unknown mode should fail")
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}

func TestFig10SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("at-scale study skipped in -short")
	}
	r, err := Fig10(ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"saba", "ideal-maxmin", "homa", "sincronia"} {
		if r.Averages[name] <= 0 {
			t.Errorf("%s: no average", name)
		}
	}
	// Ideal max-min must beat the (CC-lossy) baseline, as in the paper.
	if r.Averages["ideal-maxmin"] <= 1.0 {
		t.Errorf("ideal max-min (%.2f) should beat the baseline", r.Averages["ideal-maxmin"])
	}
	// Known deviation (see EXPERIMENTS.md): with one job per server the
	// winners of Saba's fabric skew are NIC-capped, so Saba tracks the
	// baseline instead of beating ideal max-min as the paper reports.
	// Guard that it stays within a sane band rather than asserting the
	// paper's ordering.
	if r.Averages["saba"] < 0.85 {
		t.Errorf("saba (%.2f) collapsed at scale", r.Averages["saba"])
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}

func TestFigDriftRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("drift-recovery study skipped in -short")
	}
	r, err := FigDrift(DriftStudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Saba beats the FECN baseline in every phase; the headline acceptance
	// bar is that online relearning recovers at least 80% of the pre-drift
	// advantage (it lands well above — see EXPERIMENTS.md for why fair
	// share is a strong post-drift allocation in this simulator).
	for name, v := range map[string]float64{
		"steady": r.Steady, "stale": r.Stale, "quarantine": r.Quarantine,
		"recovered": r.Recovered, "oracle": r.Oracle,
	} {
		if v <= 1.0 {
			t.Errorf("%s speedup = %.2f, want > 1 over FECN", name, v)
		}
	}
	if r.Recovery < 0.8 {
		t.Errorf("online recovery = %.0f%% of pre-drift, want ≥ 80%%", 100*r.Recovery)
	}
	// The learner must close the loop for most of the catalog: every app
	// gets a verdict, a majority promote fresh models, and the conservative
	// failures (knee-shaped truths no monotone low-degree polynomial can
	// fit) stay a small minority pinned at fair share.
	total := len(r.Relearned) + len(r.Released) + len(r.Failed)
	if want := len(workload.Names()); total != want {
		t.Fatalf("verdicts for %d apps, want %d", total, want)
	}
	if len(r.Relearned) < total/2 {
		t.Errorf("only %d/%d apps relearned", len(r.Relearned), total)
	}
	if len(r.Failed) > total/3 {
		t.Errorf("%d/%d apps failed to relearn", len(r.Failed), total)
	}
	if r.MaxObs <= 0 {
		t.Error("no observation windows recorded")
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}

func TestFig12Overhead(t *testing.T) {
	r, err := Fig12(Fig12Config{AppCounts: []int{20, 60}, Degrees: []int{1, 3}, Scenarios: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Keys) != 4 {
		t.Fatalf("keys = %v", r.Keys)
	}
	for _, key := range r.Keys {
		for _, d := range r.Durations[key] {
			if d <= 0 {
				t.Errorf("%s: non-positive duration", key)
			}
		}
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}

func TestFigDecentralConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("at-scale study skipped in -short")
	}
	r, err := FigDecentral(DecentralStudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Acceptance: the telemetry-only allocator lands within 5% of the
	// centralized Eq. 2 speedup on Fig 10 with no controller RPC on the
	// hot path...
	if r.CentralizedRatio < 0.95 {
		t.Errorf("decentral/centralized = %.0f%%, want ≥ 95%%", 100*r.CentralizedRatio)
	}
	// ...and retains ≥ 90% of the mesh controller's speedup under 5%
	// link churn.
	if r.MeshRatio < 0.90 {
		t.Errorf("decentral/mesh under churn = %.0f%%, want ≥ 90%%", 100*r.MeshRatio)
	}
	if r.ProbeGap > 0.05 {
		t.Errorf("probe gap = %.1f%%, want ≤ 5%%", 100*r.ProbeGap)
	}
	if r.ProbeIters <= 0 || r.ProbeTime <= 0 {
		t.Errorf("probe did not converge: iters=%d time=%v", r.ProbeIters, r.ProbeTime)
	}
	// The decentralized path must actually have run: telemetry rounds
	// accumulated and libraries entered ModeDecentral.
	if r.Rounds == 0 {
		t.Error("no decentral rounds recorded")
	}
	if r.ModeTransitions == 0 {
		t.Error("no mode transitions recorded")
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}
