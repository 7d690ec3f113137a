package netsim

import (
	"math"
	"math/rand"
	"testing"
)

// scanPick is the bottleneck search the winner tree replaces: an
// ascending scan with a strict <, starting from +Inf. It returns -1 when
// no key is below +Inf (every key +Inf or NaN).
func scanPick(keys []float64) (int, float64) {
	best, ti := math.Inf(1), -1
	for i, k := range keys {
		if k < best {
			best, ti = k, i
		}
	}
	return ti, best
}

// randKey draws from a small palette so exact ties are common, with
// +Inf and NaN mixed in.
func randKey(rng *rand.Rand) float64 {
	switch r := rng.Intn(20); {
	case r == 0:
		return math.Inf(1)
	case r == 1:
		return math.NaN()
	case r < 8:
		return float64(rng.Intn(4)) // heavy ties, including 0
	default:
		return rng.Float64() * 10
	}
}

// TestMinTreeMatchesScan drives the winner tree through random key
// vectors and random re-keys (raise, lower, +Inf, NaN, and the current
// minimum's value, which creates a tie with the winner) and checks after
// every step that the root names exactly the strict-< scan's pick,
// including "nothing" when no key is finite or there are no keys.
func TestMinTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lengths := []int{0, 1, 2, 3, 5, 7, 8, 9, 31, 33, 100, 257, 1000, 4999}
	for _, n := range lengths {
		for trial := 0; trial < 4; trial++ {
			var tr minTree
			ref := make([]float64, n)
			for i := range ref {
				ref[i] = randKey(rng)
				tr.key = append(tr.key, ref[i])
			}
			tr.build()
			check := func(step string) {
				t.Helper()
				wantI, wantK := scanPick(ref)
				gotI, gotK := tr.min()
				if gotI != wantI || (wantI >= 0 && gotK != wantK) {
					t.Fatalf("n=%d trial=%d %s: tree picks (%d, %g), scan picks (%d, %g)",
						n, trial, step, gotI, gotK, wantI, wantK)
				}
			}
			check("build")
			steps := 3 * n
			if steps > 600 {
				steps = 600
			}
			for s := 0; s < steps; s++ {
				i := rng.Intn(n)
				var k float64
				switch rng.Intn(6) {
				case 0: // raise
					k = ref[i] + rng.Float64()*5
				case 1: // lower
					k = ref[i] - rng.Float64()*5
				case 2:
					k = math.Inf(1)
				case 3:
					k = math.NaN()
				case 4: // tie the current winner
					if wi, wk := scanPick(ref); wi >= 0 {
						k = wk
					} else {
						k = randKey(rng)
					}
				default:
					k = randKey(rng)
				}
				ref[i] = k
				tr.set(i, k)
				check("set")
			}
			// Spend every key, as a fill's last round does.
			for i := range ref {
				ref[i] = math.Inf(1)
				tr.set(i, math.Inf(1))
			}
			check("spent")
		}
	}
}
