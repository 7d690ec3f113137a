// Package solver implements the constrained optimizer behind Saba's
// per-port weight calculation (paper Eq. 2):
//
//	W = argmin Σᵢ Dᵢ(wᵢ)   subject to   Σᵢ wᵢ = C,  lo ≤ wᵢ ≤ hi
//
// where each Dᵢ is an application's sensitivity model (a polynomial in the
// bandwidth fraction). The paper uses NLopt's SLSQP; this package provides
// an equivalent pure-Go minimizer: projected gradient descent onto the
// scaled simplex with box constraints, refined with a KKT water-filling
// step when the objective is convex on the feasible region. A brute-force
// grid solver is included for cross-checking in tests.
package solver

import (
	"errors"
	"fmt"
	"math"
)

// Objective is one additive term of the optimization: a differentiable
// function of the bandwidth fraction allocated to one application.
type Objective interface {
	// Value returns D(w), the predicted slowdown at bandwidth fraction w.
	Value(w float64) float64
	// Deriv returns dD/dw at w.
	Deriv(w float64) float64
}

// PolyObjective adapts a coefficient vector (c0 + c1·w + …) to Objective.
type PolyObjective struct {
	Coeffs []float64
}

// Value evaluates the polynomial at w by Horner's method.
func (p PolyObjective) Value(w float64) float64 {
	v := 0.0
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		v = v*w + p.Coeffs[i]
	}
	return v
}

// Deriv evaluates the polynomial derivative at w.
func (p PolyObjective) Deriv(w float64) float64 {
	v := 0.0
	for i := len(p.Coeffs) - 1; i >= 1; i-- {
		v = v*w + float64(i)*p.Coeffs[i]
	}
	return v
}

// Options configure Minimize.
type Options struct {
	Total float64 // Σ wᵢ (the C_saba fraction of the port); default 1
	// MinShare is the per-weight floor. The default (0) selects half of
	// the max-min fair share Total/n: polynomial sensitivity models are
	// extrapolations below the profiled range and systematically
	// underestimate how badly real transfers starve, so the floor keeps
	// every application within a bounded distance of its fair share —
	// the no-starvation property §5.2 highlights. The skew Saba applies
	// on top redistributes the remaining slack plus whatever
	// work-conservation frees up.
	MinShare float64
	MaxShare float64 // upper bound per weight; default Total
	MaxIters int     // projected-gradient iterations; default 500
	Tol      float64 // convergence tolerance on the objective; default 1e-9
}

func (o *Options) fill(n int) error {
	if o.Total <= 0 {
		o.Total = 1
	}
	if o.MinShare < 0 {
		return fmt.Errorf("solver: negative MinShare %g", o.MinShare)
	}
	if o.MinShare == 0 {
		o.MinShare = 0.5 * o.Total / float64(n)
	}
	if o.MaxShare == 0 {
		// Bound the upside symmetrically: model predictions far above the
		// fair operating point are extrapolations too, and letting one
		// application absorb the whole port overfits them.
		o.MaxShare = 3 * o.Total / float64(n)
	}
	if o.MaxShare < 0 || o.MaxShare > o.Total {
		o.MaxShare = o.Total
	}
	if o.MinShare*float64(n) > o.Total+1e-12 {
		// Infeasible lower bounds: relax proportionally so every app still
		// receives a (smaller) guaranteed share.
		o.MinShare = o.Total / float64(n)
	}
	if o.MaxShare*float64(n) < o.Total-1e-12 {
		return fmt.Errorf("solver: MaxShare %g too small for %d objectives with total %g", o.MaxShare, n, o.Total)
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 500
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return nil
}

// ErrNoObjectives is returned when Minimize is called without objectives.
var ErrNoObjectives = errors.New("solver: no objectives")

// Minimize solves Eq. 2 and returns the weight vector (same order as objs)
// summing to opts.Total.
func Minimize(objs []Objective, opts Options) ([]float64, error) {
	n := len(objs)
	if n == 0 {
		return nil, ErrNoObjectives
	}
	if err := opts.fill(n); err != nil {
		return nil, err
	}
	if n == 1 {
		return []float64{opts.Total}, nil
	}

	// Start from the max-min point (equal split) — also the fallback if
	// the models are pathological.
	w := make([]float64, n)
	for i := range w {
		w[i] = opts.Total / float64(n)
	}
	best := append([]float64(nil), w...)
	bestVal := total(objs, w)

	// Projected gradient descent with diminishing step and box+simplex
	// projection. Sensitivity polynomials are low-degree and smooth, so
	// this converges quickly; we track the incumbent to be safe against
	// non-convexity.
	grad := make([]float64, n)
	step := opts.Total / 4
	prev := bestVal
	for it := 0; it < opts.MaxIters; it++ {
		gnorm := 0.0
		for i, o := range objs {
			grad[i] = o.Deriv(w[i])
			gnorm += grad[i] * grad[i]
		}
		gnorm = math.Sqrt(gnorm)
		if gnorm < 1e-15 {
			break
		}
		for i := range w {
			w[i] -= step * grad[i] / gnorm
		}
		projectSimplexBox(w, opts.Total, opts.MinShare, opts.MaxShare)
		v := total(objs, w)
		if v < bestVal {
			bestVal = v
			copy(best, w)
		}
		if v > prev { // overshoot: shrink the step
			step *= 0.5
			copy(w, best)
		}
		if math.Abs(prev-v) < opts.Tol && it > 10 {
			break
		}
		prev = v
	}

	// A Lagrangian water-filling pass is cheap (O(n log(1/ε))) and exact
	// for convex objectives; keep it if it wins.
	if lw, ok := lagrangian(objs, opts); ok {
		if v := total(objs, lw); v < bestVal {
			bestVal = v
			copy(best, lw)
		}
	}

	// Polish with a pairwise coordinate exchange: move mass between pairs
	// whose marginal costs differ. This recovers the exact KKT point for
	// convex objectives and improves non-convex incumbents. Quadratic in
	// n, so reserved for small ports; large instances rely on the
	// gradient + Lagrangian passes.
	if n <= 40 {
		copy(w, best)
		polishPairwise(objs, w, opts, 200)
		if v := total(objs, w); v < bestVal {
			bestVal = v
			copy(best, w)
		}
	}
	return best, nil
}

// lagrangian solves Eq. 2 by dualizing the sum constraint: for a
// multiplier λ each weight independently minimizes Dᵢ(w) − λw over the
// box, and λ is bisected until the weights sum to Total. Exact for convex
// Dᵢ; for non-convex models the bisection may not close the duality gap,
// in which case the caller's incumbent stands.
func lagrangian(objs []Objective, opts Options) ([]float64, bool) {
	n := len(objs)
	w := make([]float64, n)
	fill := func(lambda float64) float64 {
		s := 0.0
		for i, o := range objs {
			w[i] = proxMin(o, lambda, opts.MinShare, opts.MaxShare)
			s += w[i]
		}
		return s
	}
	// Bracket λ. Larger λ rewards larger w (we minimize D − λw), so the
	// sum is non-decreasing in λ for convex D.
	lo, hi := -1.0, 1.0
	for i := 0; fill(lo) > opts.Total && i < 80; i++ {
		lo *= 2
	}
	for i := 0; fill(hi) < opts.Total && i < 80; i++ {
		hi *= 2
	}
	if fill(lo) > opts.Total || fill(hi) < opts.Total {
		return nil, false
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if fill(mid) < opts.Total {
			lo = mid
		} else {
			hi = mid
		}
	}
	s := fill(hi)
	// Distribute residual drift over interior coordinates.
	drift := opts.Total - s
	if math.Abs(drift) > 1e-9*opts.Total {
		for i := range w {
			if drift == 0 {
				break
			}
			nx := clamp(w[i]+drift, opts.MinShare, opts.MaxShare)
			drift -= nx - w[i]
			w[i] = nx
		}
		if math.Abs(drift) > 1e-6*opts.Total {
			return nil, false
		}
	}
	return w, true
}

// proxMin minimizes D(w) − λw over [lo, hi] by checking the stationary
// points of the (low-degree polynomial) objective plus the endpoints.
func proxMin(o Objective, lambda, lo, hi float64) float64 {
	bestW := lo
	bestV := o.Value(lo) - lambda*lo
	try := func(w float64) {
		if w < lo || w > hi {
			return
		}
		if v := o.Value(w) - lambda*w; v < bestV {
			bestV, bestW = v, w
		}
	}
	try(hi)
	// Stationary points: D'(w) = λ. For the polynomial objectives used in
	// practice D' has degree ≤ 2; solve directly when possible, otherwise
	// scan a coarse grid.
	if p, ok := o.(PolyObjective); ok && len(p.Coeffs) <= 4 {
		switch len(p.Coeffs) {
		case 0, 1:
			// constant: endpoints only
		case 2:
			// D' = c1 (constant): no interior stationary point.
		case 3:
			// D' = c1 + 2c2·w = λ
			if p.Coeffs[2] != 0 {
				try((lambda - p.Coeffs[1]) / (2 * p.Coeffs[2]))
			}
		case 4:
			// D' = c1 + 2c2·w + 3c3·w² = λ
			a, b, c := 3*p.Coeffs[3], 2*p.Coeffs[2], p.Coeffs[1]-lambda
			if a == 0 {
				if b != 0 {
					try(-c / b)
				}
			} else if disc := b*b - 4*a*c; disc >= 0 {
				sq := math.Sqrt(disc)
				try((-b + sq) / (2 * a))
				try((-b - sq) / (2 * a))
			}
		}
		return bestW
	}
	// Generic objective: coarse scan + local refinement.
	const steps = 32
	for i := 0; i <= steps; i++ {
		try(lo + (hi-lo)*float64(i)/steps)
	}
	return bestW
}

func total(objs []Objective, w []float64) float64 {
	v := 0.0
	for i, o := range objs {
		v += o.Value(w[i])
	}
	return v
}

// polishPairwise performs exact line searches on pairs (i, j), transferring
// δ from j to i, which preserves the simplex constraint by construction.
func polishPairwise(objs []Objective, w []float64, opts Options, rounds int) {
	n := len(objs)
	for r := 0; r < rounds; r++ {
		improved := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if transferSearch(objs, w, i, j, opts) {
					improved = true
				}
			}
		}
		if !improved {
			return
		}
	}
}

// transferSearch finds the δ minimizing D_i(w_i+δ)+D_j(w_j−δ) over the
// feasible interval via golden-section search. Returns true if it moved.
func transferSearch(objs []Objective, w []float64, i, j int, opts Options) bool {
	lo := math.Max(opts.MinShare-w[i], w[j]-opts.MaxShare) // most-negative δ
	hi := math.Min(opts.MaxShare-w[i], w[j]-opts.MinShare) // most-positive δ
	if hi-lo < 1e-12 {
		return false
	}
	f := func(d float64) float64 {
		return objs[i].Value(w[i]+d) + objs[j].Value(w[j]-d)
	}
	const phi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := f(x1), f(x2)
	for k := 0; k < 60 && b-a > 1e-10; k++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = f(x2)
		}
	}
	d := (a + b) / 2
	if f(d) < f(0)-1e-12 {
		w[i] += d
		w[j] -= d
		return true
	}
	return false
}

// projectSimplexBox projects w onto {w : Σw = total, lo ≤ wᵢ ≤ hi} in
// Euclidean norm using bisection on the dual variable (a box-constrained
// variant of Michelot's simplex projection).
func projectSimplexBox(w []float64, totalSum, lo, hi float64) {
	clampSum := func(tau float64) float64 {
		s := 0.0
		for _, x := range w {
			s += clamp(x-tau, lo, hi)
		}
		return s
	}
	// Bracket tau: shifting by ±(max deviation) certainly brackets.
	tauLo, tauHi := -1.0, 1.0
	for clampSum(tauLo) < totalSum {
		tauLo *= 2
		if tauLo < -1e12 {
			break
		}
	}
	for clampSum(tauHi) > totalSum {
		tauHi *= 2
		if tauHi > 1e12 {
			break
		}
	}
	for k := 0; k < 100; k++ {
		mid := (tauLo + tauHi) / 2
		if clampSum(mid) > totalSum {
			tauLo = mid
		} else {
			tauHi = mid
		}
	}
	tau := (tauLo + tauHi) / 2
	for i := range w {
		w[i] = clamp(w[i]-tau, lo, hi)
	}
	// Fix residual rounding drift by nudging an interior coordinate.
	s := 0.0
	for _, x := range w {
		s += x
	}
	drift := totalSum - s
	if drift != 0 {
		for i := range w {
			nx := w[i] + drift
			if nx >= lo && nx <= hi {
				w[i] = nx
				break
			}
		}
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// GridMinimize exhaustively searches the simplex at the given resolution
// (number of discrete units that sum to Total). It is exponential in the
// number of objectives and exists to validate Minimize in tests and for
// tiny problem instances.
func GridMinimize(objs []Objective, opts Options, units int) ([]float64, error) {
	n := len(objs)
	if n == 0 {
		return nil, ErrNoObjectives
	}
	if err := opts.fill(n); err != nil {
		return nil, err
	}
	if units < n {
		return nil, fmt.Errorf("solver: grid of %d units cannot cover %d objectives", units, n)
	}
	best := make([]float64, n)
	bestVal := math.Inf(1)
	cur := make([]int, n)
	var rec func(idx, remaining int)
	rec = func(idx, remaining int) {
		if idx == n-1 {
			cur[idx] = remaining
			w := make([]float64, n)
			for i, u := range cur {
				w[i] = float64(u) / float64(units) * opts.Total
				if w[i] < opts.MinShare-1e-9 || w[i] > opts.MaxShare+1e-9 {
					return
				}
			}
			if v := total(objs, w); v < bestVal {
				bestVal = v
				copy(best, w)
			}
			return
		}
		for u := 0; u <= remaining; u++ {
			cur[idx] = u
			rec(idx+1, remaining-u)
		}
	}
	rec(0, units)
	if math.IsInf(bestVal, 1) {
		return nil, errors.New("solver: grid search found no feasible point")
	}
	return best, nil
}
