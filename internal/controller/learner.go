package controller

import (
	"math"
	"strconv"

	"saba/internal/regression"
	"saba/internal/telemetry"
)

// Online profile learner: the relearn → validate → promote → (rollback)
// half of the drift state machine started in quarantine.go.
//
// While an app is quarantined its observations keep flowing through
// ObserveSlowdown, and — unlike the profiler's dedicated sweeps — they
// arrive at whatever bandwidth fractions the work-conserving fabric
// happened to grant: roughly the fair share under contention, much more
// when neighbors go idle. That natural variance is the free probing
// signal the learner fits against. Guardrails, in order:
//
//   - evidence gate: at least `need` ring samples spanning at least
//     MinSpread of bandwidth fraction (a cluster of near-identical
//     fractions is ill-conditioned by construction);
//   - fit: regression.FitWeighted at Degree with recency-decayed
//     1/slowdown² weights plus a heavily weighted (1, 1) anchor — the
//     slowdown normalization guarantees D(1)=1 exactly, and the anchor
//     keeps a fit over a partial bandwidth window from extrapolating
//     wildly near full bandwidth;
//   - floor repair: lift the curve by the amount it dips below 1 (small
//     LSQ undershoot near full bandwidth is shape noise, not signal);
//   - sanity: regression.ValidateSlowdownModel — monotone non-increasing
//     and ≥ 1 over [0, 1]; a failed fit is retried at degree 1 before
//     rejection, because a monotone line is the sanest minimal model;
//   - skill: CrossValidateR2 on held-out ring samples must clear R2Bar,
//     or — for flat curves that leave R² no variance to explain — every
//     holdout residual must sit within half the drift threshold.
//
// Promotion swaps the app's coefficients atomically under the controller
// lock, bumps the solve epoch (invalidating the cross-port solution
// cache and every port memo) and re-enforces. Deliberately, promotion
// does NOT re-run the app→PL clustering: renumbering PLs under live
// connections would desynchronize packets from the switch tables (the
// same argument as Deregister); the next registration re-clusters.
//
// A promoted model is on probation for Probation clean observations. If
// drift re-triggers inside that window, rollbackLocked restores the
// pre-learning coefficients, re-quarantines, and widens the sample
// requirement (capped at the ring size) — hysteresis, so a flapping
// workload presents more evidence each round instead of oscillating the
// solver.

// record appends an observation to the bounded recency ring, dropping
// the oldest sample when full. Non-finite observations are poison (the
// drift counters already treat them as maximally drifted) and slowdowns
// below 1 are outside the model's domain, so both are clamped out.
func (ds *driftState) record(b, d float64, cap int) {
	if math.IsNaN(b) || math.IsInf(b, 0) || math.IsNaN(d) || math.IsInf(d, 0) {
		return
	}
	if b <= 0 || b > 1 {
		return
	}
	if d < 1 {
		d = 1
	}
	if len(ds.ring) >= cap {
		copy(ds.ring, ds.ring[1:])
		ds.ring = ds.ring[:len(ds.ring)-1]
	}
	ds.ring = append(ds.ring, obsSample{b: b, d: d})
}

// ringSpread returns the bandwidth-fraction span covered by the ring.
func (ds *driftState) ringSpread() float64 {
	if len(ds.ring) == 0 {
		return 0
	}
	lo, hi := ds.ring[0].b, ds.ring[0].b
	for _, s := range ds.ring[1:] {
		if s.b < lo {
			lo = s.b
		}
		if s.b > hi {
			hi = s.b
		}
	}
	return hi - lo
}

// tryRefitLocked attempts to learn a replacement model for a quarantined
// app from its observation ring. It returns true if a model was promoted
// (the caller must bump the solve epoch and re-enforce). Evidence-gate
// misses are not refit attempts and are not counted; fits that reach the
// validator and fail increment refit_rejected.
func (c *Centralized) tryRefitLocked(app *appState, ds *driftState) bool {
	d := &c.cfg.Drift
	if len(ds.ring) < ds.need || ds.ringSpread() < d.MinSpread {
		return false
	}

	// Split the ring into train and holdout: every HoldoutEvery-th sample
	// is held out, so the holdout spans the same recency and bandwidth
	// range as the training set.
	var train, hold []regression.Sample
	var weights []float64
	n := len(ds.ring)
	wsum := 0.0
	for i, s := range ds.ring {
		if (i+1)%d.HoldoutEvery == 0 {
			hold = append(hold, regression.Sample{Bandwidth: s.b, Slowdown: s.d})
			continue
		}
		train = append(train, regression.Sample{Bandwidth: s.b, Slowdown: s.d})
		w := math.Pow(d.Decay, float64(n-1-i)) / (s.d * s.d)
		weights = append(weights, w)
		wsum += w
	}
	if len(hold) == 0 || len(train) <= d.Degree+1 {
		return false
	}
	// Anchor: the slowdown normalization makes D(1)=1 exact, so pin the
	// full-bandwidth end with the combined weight of every real sample.
	train = append(train, regression.Sample{Bandwidth: 1, Slowdown: 1})
	weights = append(weights, wsum)

	fit, ok := fitSane(train, weights, d.Degree)
	if !ok {
		c.tel.refitRejected.Inc()
		return false
	}
	if regression.CrossValidateR2(fit, hold) < d.R2Bar && !holdoutWithin(fit, hold, d.Threshold/2) {
		// R² is the variance explained on held-out samples — but an app
		// whose true curve is flat leaves no variance to explain, and R²
		// degenerates for it (a near-perfect fit can score arbitrarily
		// low). The fallback acceptance is self-consistent with the
		// detector instead: if every holdout prediction sits within half
		// the drift threshold of the observation, the promoted model
		// cannot re-trigger detection on the data that vetted it.
		c.tel.refitRejected.Inc()
		return false
	}

	// Promote: atomic under the controller lock. The ring is cleared so
	// the fresh model is judged only by observations it has seen.
	app.coeffs = fit.Coeffs
	ds.quarantined = false
	ds.promoted = true
	ds.learned = true
	ds.probation = d.Probation
	ds.ring = ds.ring[:0]
	ds.bad, ds.good = 0, 0
	ds.modelAge = 0
	ds.ageGauge.Set(0)
	c.tel.profileRefits.Inc()
	c.updateQuarGaugeLocked()
	return true
}

// holdoutWithin reports whether the model's relative residual stays
// within tol on every holdout sample (the degenerate-R² acceptance path
// of tryRefitLocked).
func holdoutWithin(fit regression.Polynomial, hold []regression.Sample, tol float64) bool {
	for _, h := range hold {
		if driftResidual(fit.Coeffs, h.Bandwidth, h.Slowdown) > tol {
			return false
		}
	}
	return true
}

// fitSane fits a polynomial of the given degree (falling back to degree
// 1) and repairs/validates it as a slowdown model. The returned model is
// guaranteed to satisfy regression.ValidateSlowdownModel(·, 0).
func fitSane(train []regression.Sample, weights []float64, degree int) (regression.Polynomial, bool) {
	for deg := degree; deg >= 1; deg-- {
		fit, err := regression.FitWeighted(train, deg, weights)
		if err != nil {
			continue
		}
		fit = liftToFloor(fit)
		if regression.ValidateSlowdownModel(fit, 0) {
			return fit, true
		}
	}
	return regression.Polynomial{}, false
}

// liftToFloor shifts the curve up by the amount it dips below the
// slowdown floor over [0, 1], if any. LSQ fits of decreasing data
// commonly undershoot 1 by a hair near full bandwidth; lifting preserves
// the fitted shape (and therefore Eq. 2's derivative structure) while
// restoring the physical floor.
func liftToFloor(p regression.Polynomial) regression.Polynomial {
	if len(p.Coeffs) == 0 {
		return p
	}
	min := math.Inf(1)
	for i := 0; i < 257; i++ {
		v := p.Eval(float64(i) / 256)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return p // validator will reject
		}
		if v < min {
			min = v
		}
	}
	if min >= 1 {
		return p
	}
	lifted := append([]float64(nil), p.Coeffs...)
	lifted[0] += 1 - min
	return regression.Polynomial{Coeffs: lifted}
}

// rollbackLocked handles drift re-triggering during a promoted model's
// probation: restore the pre-learning coefficients, return the app to
// fair share, and widen the evidence requirement.
func (c *Centralized) rollbackLocked(app *appState, ds *driftState) {
	if ds.origCoeffs != nil {
		app.coeffs = append([]float64(nil), ds.origCoeffs...)
	}
	ds.promoted = false
	ds.learned = false
	ds.probation = 0
	ds.need *= c.cfg.Drift.Widen
	if ds.need > c.cfg.Drift.RingSize {
		ds.need = c.cfg.Drift.RingSize
	}
	ds.ring = ds.ring[:0]
	ds.modelAge = 0
	ds.ageGauge.Set(0)
	c.tel.profileRollbacks.Inc()
	c.quarantineLocked(app, ds)
}

// modelAgeGauge resolves the per-app model-age gauge (observations since
// the app's current model was installed).
func (c *Centralized) modelAgeGauge(id AppID) *telemetry.Gauge {
	name := telemetry.Label("controller.model_age",
		"deploy", "centralized", "app", strconv.FormatInt(int64(id), 10))
	return c.cfg.Telemetry.Gauge(name)
}

// ModelOf returns a copy of the app's current sensitivity coefficients
// and whether they were learned online (as opposed to the registration
// -time profile). Experiment harnesses export promoted models through it.
func (c *Centralized) ModelOf(id AppID) ([]float64, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	app, ok := c.apps[id]
	if !ok {
		return nil, false, ErrUnknownApp
	}
	learned := false
	if ds := c.drift[id]; ds != nil {
		learned = ds.learned
	}
	return append([]float64(nil), app.coeffs...), learned, nil
}
