package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"saba/internal/topology"
)

// TestSerialParallelExperimentsIdentical is the differential gate of the
// parallel experiment runner: the same study at parallelism 1 and 4 must
// produce bit-identical results — not approximately equal, DeepEqual.
// CI runs it under -race.
func TestSerialParallelExperimentsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("differential study skipped in -short")
	}
	defer SetParallelism(0)

	// Reduced fabric and workload count: the differential property —
	// bit-identical output at any parallelism — is scale-independent,
	// and this test runs under -race in CI.
	small := ScaleConfig{
		Topology: topology.SpineLeafConfig{
			Pods: 2, ToRsPerPod: 2, LeavesPerPod: 3, Spines: 3, HostsPerToR: 6, Queues: 8,
		},
		Workloads: 8,
	}

	t.Run("Fig10", func(t *testing.T) {
		SetParallelism(1)
		serial, err := Fig10(small)
		if err != nil {
			t.Fatal(err)
		}
		SetParallelism(4)
		parallel, err := Fig10(small)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("Fig10 diverges:\nserial   %+v\nparallel %+v", serial, parallel)
		}
	})

	t.Run("Fig8", func(t *testing.T) {
		serial, parallel := fig8At(t, 1), fig8At(t, 4)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("Fig8 diverges:\nserial   %+v\nparallel %+v", serial, parallel)
		}
	})
}

// fig8Runs memoizes Fig8(3, DefaultSeed) at parallelism 1 and 4. The
// study dominates this package's test time, and both the Fig8
// differential above and TestFig8SmallRun need the serial result.
var fig8Runs [2]struct {
	once sync.Once
	r    *Fig8Result
	err  error
}

// fig8At returns Fig8(3, DefaultSeed) computed at parallelism par (1 or
// 4), computing each at most once per test binary.
func fig8At(t *testing.T, par int) *Fig8Result {
	t.Helper()
	run := &fig8Runs[0]
	if par != 1 {
		run = &fig8Runs[1]
	}
	run.once.Do(func() {
		SetParallelism(par)
		defer SetParallelism(0)
		run.r, run.err = Fig8(3, DefaultSeed)
	})
	if run.err != nil {
		t.Fatal(run.err)
	}
	return run.r
}

func TestRunCellsExecutesEverySlot(t *testing.T) {
	defer SetParallelism(0)
	for _, par := range []int{1, 3, 16} {
		SetParallelism(par)
		const n = 37
		out := make([]int, n)
		if err := runCells(n, func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par=%d: slot %d = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// TestRunCellsLowestIndexErrorWins: failures are deterministic — the
// lowest-indexed failing cell's error is returned, not the first to fail
// in wall-clock order.
func TestRunCellsLowestIndexErrorWins(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(8)
	fail := map[int]bool{2: true, 5: true, 11: true}
	err := runCells(16, func(i int) error {
		if fail[i] {
			return fmt.Errorf("cell %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "cell 2" {
		t.Fatalf("got %v, want the lowest-indexed failure (cell 2)", err)
	}
}

func TestRunCellsSerialStopsAtFirstError(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	var ran atomic.Int64
	sentinel := errors.New("boom")
	err := runCells(10, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	if ran.Load() != 4 {
		t.Fatalf("serial path ran %d cells after the failure, want 4 total", ran.Load())
	}
}

func TestParallelismDefaultsAndClamps(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(0)
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("unset parallelism = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetParallelism(-5)
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("negative parallelism = %d, want GOMAXPROCS default", got)
	}
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Errorf("parallelism = %d, want 3", got)
	}
}

// TestCellRNGDeterministic: a cell's RNG depends only on (seed, coords),
// never on which worker ran it, and distinct coordinates decorrelate.
func TestCellRNGDeterministic(t *testing.T) {
	a := cellRNG(42, 1, 2, 3)
	b := cellRNG(42, 1, 2, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical coordinates produced diverging streams")
		}
	}
	c := cellRNG(42, 1, 2, 3)
	d := cellRNG(42, 1, 2, 4)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("adjacent coordinates correlate: %d/100 matches", same)
	}
}
