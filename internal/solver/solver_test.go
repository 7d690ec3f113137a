package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sens builds a typical decreasing-in-bandwidth sensitivity objective:
// slowdown = 1 + a/(w+eps) approximated by its cubic fit is overkill here;
// tests use explicit polynomials instead.
func polyObj(coeffs ...float64) Objective { return PolyObjective{Coeffs: coeffs} }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestPolyObjective(t *testing.T) {
	p := PolyObjective{Coeffs: []float64{4, -6, 2}} // 4 - 6w + 2w²
	if got := p.Value(1); math.Abs(got-0) > 1e-12 {
		t.Errorf("Value(1) = %g, want 0", got)
	}
	if got := p.Deriv(1); math.Abs(got-(-2)) > 1e-12 {
		t.Errorf("Deriv(1) = %g, want -2", got)
	}
	if got := p.Deriv(0); math.Abs(got-(-6)) > 1e-12 {
		t.Errorf("Deriv(0) = %g, want -6", got)
	}
}

func TestMinimizeSingleObjective(t *testing.T) {
	w, err := Minimize([]Objective{polyObj(5, -1)}, Options{Total: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 1 || math.Abs(w[0]-0.8) > 1e-12 {
		t.Errorf("single objective weights = %v, want [0.8]", w)
	}
}

func TestMinimizeNoObjectives(t *testing.T) {
	if _, err := Minimize(nil, Options{}); err != ErrNoObjectives {
		t.Errorf("err = %v, want ErrNoObjectives", err)
	}
}

func TestMinimizeSymmetricSplitsEqually(t *testing.T) {
	// Identical convex objectives must yield the equal split.
	obj := polyObj(4, -6, 3) // convex, decreasing on [0,1]
	w, err := Minimize([]Objective{obj, obj, obj, obj}, Options{Total: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range w {
		if math.Abs(x-0.25) > 1e-4 {
			t.Errorf("w[%d] = %g, want 0.25", i, x)
		}
	}
}

func TestMinimizeFavorsSensitiveApp(t *testing.T) {
	// LR-like (steep) vs PR-like (flat) sensitivity: the steep app must
	// receive strictly more bandwidth. Mirrors the paper's skewed
	// allocation experiment (§2.2: 75%/25% split for LR vs PR).
	lr := polyObj(5.2, -6.0, 1.8) // steep decrease
	pr := polyObj(1.5, -0.6, 0.1) // nearly flat
	w, err := Minimize([]Objective{lr, pr}, Options{Total: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w[0] <= w[1] {
		t.Fatalf("sensitive app got %g, insensitive got %g; want sensitive > insensitive", w[0], w[1])
	}
	if w[0] < 0.6 {
		t.Errorf("sensitive app share = %g, expected a strongly skewed split", w[0])
	}
	if math.Abs(sum(w)-1) > 1e-6 {
		t.Errorf("weights sum to %g, want 1", sum(w))
	}
}

func TestMinimizeRespectsTotalConstraint(t *testing.T) {
	objs := []Objective{polyObj(3, -2), polyObj(2, -1), polyObj(4, -3, 0.5)}
	for _, totalShare := range []float64{0.5, 0.9, 1.0} {
		w, err := Minimize(objs, Options{Total: totalShare})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sum(w)-totalShare) > 1e-6 {
			t.Errorf("Total=%g: weights sum to %g", totalShare, sum(w))
		}
	}
}

func TestMinimizeRespectsMinShare(t *testing.T) {
	// Even a completely insensitive app keeps the floor share (WFQ's
	// no-starvation property, paper §5.2).
	steep := polyObj(10, -15, 6)
	flat := polyObj(1) // constant: gradient zero
	w, err := Minimize([]Objective{steep, flat}, Options{Total: 1, MinShare: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if w[1] < 0.05-1e-9 {
		t.Errorf("flat app share = %g, want >= MinShare 0.05", w[1])
	}
}

func TestMinimizeInfeasibleMinShareRelaxed(t *testing.T) {
	// 30 objectives with MinShare 0.05 would need 1.5 total; the solver
	// relaxes the floor instead of failing.
	objs := make([]Objective, 30)
	for i := range objs {
		objs[i] = polyObj(2, -1)
	}
	w, err := Minimize(objs, Options{Total: 1, MinShare: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum(w)-1) > 1e-6 {
		t.Errorf("sum = %g, want 1", sum(w))
	}
}

func TestMinimizeMatchesGridOnConvexInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(3)
		objs := make([]Objective, n)
		for i := range objs {
			// Convex decreasing quadratics: a - b·w + c·w², b>0, c>0,
			// with minimum beyond w=1 so objectives stay decreasing.
			c := 0.2 + rng.Float64()
			b := 2*c + rng.Float64()*4
			a := 1 + b // keeps values positive on [0,1]
			objs[i] = polyObj(a, -b, c)
		}
		opts := Options{Total: 1, MinShare: 0.02}
		w, err := Minimize(objs, opts)
		if err != nil {
			t.Fatal(err)
		}
		g, err := GridMinimize(objs, opts, 50)
		if err != nil {
			t.Fatal(err)
		}
		vw, vg := 0.0, 0.0
		for i := range objs {
			vw += objs[i].Value(w[i])
			vg += objs[i].Value(g[i])
		}
		// Grid is coarse: Minimize must be at least as good (within grid error).
		if vw > vg+1e-3 {
			t.Errorf("trial %d: Minimize objective %g worse than grid %g (w=%v g=%v)", trial, vw, vg, w, g)
		}
	}
}

func TestMinimizeNeverWorseThanEqualSplit(t *testing.T) {
	// Property: the optimizer must never do worse than max-min's equal
	// split — otherwise Saba would lose to its own baseline.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		objs := make([]Objective, n)
		for i := range objs {
			objs[i] = polyObj(1+5*rng.Float64(), -5*rng.Float64(), 3*rng.Float64(), -rng.Float64())
		}
		w, err := Minimize(objs, Options{Total: 1})
		if err != nil {
			return false
		}
		vw, ve := 0.0, 0.0
		for i := range objs {
			vw += objs[i].Value(w[i])
			ve += objs[i].Value(1 / float64(n)) // max-min's equal split
		}
		return vw <= ve+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestProjectSimplexBox(t *testing.T) {
	w := []float64{0.9, 0.9, 0.9}
	projectSimplexBox(w, 1, 0.01, 1)
	if math.Abs(sum(w)-1) > 1e-9 {
		t.Errorf("projection sum = %g, want 1", sum(w))
	}
	for i, x := range w {
		if x < 0.01-1e-12 || x > 1+1e-12 {
			t.Errorf("w[%d] = %g out of box", i, x)
		}
	}
	// Equal inputs project to equal outputs.
	if math.Abs(w[0]-w[1]) > 1e-9 || math.Abs(w[1]-w[2]) > 1e-9 {
		t.Errorf("symmetric projection broke symmetry: %v", w)
	}
}

func TestProjectSimplexBoxProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()*4 - 2
		}
		lo := 0.01
		projectSimplexBox(w, 1, lo, 1)
		if math.Abs(sum(w)-1) > 1e-6 {
			return false
		}
		for _, x := range w {
			if x < lo-1e-9 || x > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGridMinimizeErrors(t *testing.T) {
	if _, err := GridMinimize(nil, Options{}, 10); err != ErrNoObjectives {
		t.Errorf("err = %v, want ErrNoObjectives", err)
	}
	objs := []Objective{polyObj(1), polyObj(1), polyObj(1)}
	if _, err := GridMinimize(objs, Options{}, 2); err == nil {
		t.Error("grid smaller than objective count should fail")
	}
}

func BenchmarkMinimize8Apps(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	objs := make([]Objective, 8)
	for i := range objs {
		objs[i] = polyObj(1+5*rng.Float64(), -4*rng.Float64(), 2*rng.Float64(), -0.5*rng.Float64())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Minimize(objs, Options{Total: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
