package trace

import (
	"math"
	"testing"

	"saba/internal/netsim"
	"saba/internal/topology"
	"saba/internal/workload"
)

func TestRecorderValidation(t *testing.T) {
	nodes := []topology.NodeID{1}
	if _, err := NewRecorder(0, nodes, 100); err == nil {
		t.Error("zero interval should fail")
	}
	if _, err := NewRecorder(1, nil, 100); err == nil {
		t.Error("no nodes should fail")
	}
	if _, err := NewRecorder(1, nodes, 0); err == nil {
		t.Error("zero capacity should fail")
	}
}

func TestMarkCPUBuckets(t *testing.T) {
	r, err := NewRecorder(1, []topology.NodeID{1, 2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Both nodes busy for 1.5s starting at 0.5: buckets 0 gets 0.5s×2,
	// bucket 1 gets 1.0s×2.
	r.MarkCPU(0.5, 2.0, 2)
	pts := r.Series()
	if len(pts) < 2 {
		t.Fatalf("series too short: %d", len(pts))
	}
	if math.Abs(pts[0].CPU-50) > 1e-9 {
		t.Errorf("bucket0 CPU = %g, want 50", pts[0].CPU)
	}
	if math.Abs(pts[1].CPU-100) > 1e-9 {
		t.Errorf("bucket1 CPU = %g, want 100", pts[1].CPU)
	}
	// No-ops.
	r.MarkCPU(5, 5, 2)
	r.MarkCPU(3, 2, 2)
	r.MarkCPU(1, 2, 0)
}

func TestNetworkObservation(t *testing.T) {
	top, err := topology.NewSingleSwitch(topology.SingleSwitchConfig{Hosts: 2, LinkCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.NewNetwork(top)
	e := netsim.NewEngine(net, netsim.NewIdealMaxMin(net))
	hosts := top.Hosts()
	r, err := NewRecorder(1, hosts[:1], 100)
	if err != nil {
		t.Fatal(err)
	}
	r.Attach(e)
	// 400 bits at 100 bps: node 0 at 100% egress for 4s.
	e.AddFlow(netsim.FlowSpec{Src: hosts[0], Dst: hosts[1], Bits: 400}, nil)
	if err := e.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	pts := r.Series()
	if len(pts) < 4 {
		t.Fatalf("series too short: %d buckets", len(pts))
	}
	for b := 0; b < 4; b++ {
		if math.Abs(pts[b].Net-100) > 1e-6 {
			t.Errorf("bucket %d Net = %g, want 100", b, pts[b].Net)
		}
	}
}

func TestFig2ShapeSerialVsOverlap(t *testing.T) {
	// The Fig. 2 mechanism: for a serial workload (LR-like) CPU and
	// network are anti-correlated; for an overlapped one (PR-like) they
	// are simultaneously high. Verify with two single-stage jobs.
	run := func(overlap float64) []Point {
		top, err := topology.NewSingleSwitch(topology.SingleSwitchConfig{Hosts: 8})
		if err != nil {
			t.Fatal(err)
		}
		net := netsim.NewNetwork(top)
		e := netsim.NewEngine(net, netsim.NewIdealMaxMin(net))
		rec, err := NewRecorder(1, top.Hosts(), topology.DefaultLinkCapacity)
		if err != nil {
			t.Fatal(err)
		}
		rec.Attach(e)
		spec := workload.Spec{Name: "t", Stages: []workload.Stage{{
			ComputeSeconds:   10,
			CommBytesPerNode: 10 * 56e9 / 8, // 10s at line rate
			Overlap:          overlap,
		}}}
		j := &workload.Job{ID: 1, Spec: spec, Nodes: top.Hosts()}
		j.OnPhase = func(tm float64, stage int, p workload.Phase) {
			if p == workload.PhaseComputeStart {
				st := j.ScaledStages()[stage]
				rec.MarkCPU(tm, tm+st.ComputeSeconds, len(j.Nodes))
			}
		}
		if err := j.Start(e); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		return rec.Series()
	}

	serial := run(0)
	// Serial: no bucket has both CPU and network high.
	for _, p := range serial {
		if p.CPU > 80 && p.Net > 80 {
			t.Errorf("serial job overlaps CPU (%g) and net (%g) at t=%g", p.CPU, p.Net, p.Time)
		}
	}

	overlapped := run(1)
	both := 0
	for _, p := range overlapped {
		if p.CPU > 80 && p.Net > 80 {
			both++
		}
	}
	if both < 5 {
		t.Errorf("overlapped job shows only %d buckets with simultaneous CPU+net", both)
	}
}

func TestRingBufferBoundedMemory(t *testing.T) {
	r, err := NewRecorder(1, []topology.NodeID{1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 64
	r.SetMaxSamples(cap)
	// Drive the recorder far past the window: 10k seconds of activity on
	// both series, one second at a time.
	for s := 0; s < 10000; s++ {
		from, to := float64(s), float64(s)+1
		r.MarkCPU(from, to, 1)
		r.spread(&r.netBits, from, to, 100) // full line rate
	}
	if len(r.cpuBusy) > cap || len(r.netBits) > cap {
		t.Fatalf("buckets exceed cap: cpu=%d net=%d, cap=%d",
			len(r.cpuBusy), len(r.netBits), cap)
	}
	pts := r.Series()
	if len(pts) > cap {
		t.Fatalf("series has %d points, cap %d", len(pts), cap)
	}
	// The retained window must be the most recent buckets, with absolute
	// timestamps and intact data on both series.
	if got, want := pts[len(pts)-1].Time, float64(9999); got != want {
		t.Errorf("last bucket time = %g, want %g", got, want)
	}
	if got, want := pts[0].Time, float64(10000-cap); got != want {
		t.Errorf("first bucket time = %g, want %g", got, want)
	}
	for _, p := range pts {
		if math.Abs(p.CPU-100) > 1e-9 || math.Abs(p.Net-100) > 1e-9 {
			t.Fatalf("bucket t=%g: CPU=%g Net=%g, want 100/100", p.Time, p.CPU, p.Net)
		}
	}
	if r.Dropped() != 10000-cap {
		t.Errorf("Dropped() = %d, want %d", r.Dropped(), 10000-cap)
	}
}

func TestRingBufferSpanningWrite(t *testing.T) {
	// A single interval wider than the window keeps only its tail.
	r, _ := NewRecorder(1, []topology.NodeID{1}, 100)
	r.SetMaxSamples(4)
	r.MarkCPU(0, 100, 1)
	pts := r.Series()
	if len(pts) != 4 {
		t.Fatalf("series has %d points, want 4", len(pts))
	}
	if pts[0].Time != 96 {
		t.Errorf("first bucket time = %g, want 96", pts[0].Time)
	}
	for _, p := range pts {
		if math.Abs(p.CPU-100) > 1e-9 {
			t.Errorf("bucket t=%g CPU=%g, want 100", p.Time, p.CPU)
		}
	}
	// Writes entirely before the window are dropped silently.
	r.MarkCPU(0, 1, 1)
	if got := r.Series()[0].CPU; math.Abs(got-100) > 1e-9 {
		t.Errorf("stale write corrupted window: CPU=%g", got)
	}
}

func TestSeriesClampsAt100(t *testing.T) {
	r, _ := NewRecorder(1, []topology.NodeID{1}, 100)
	r.MarkCPU(0, 1, 5) // 5 busy nodes reported for 1 traced node
	if pts := r.Series(); pts[0].CPU != 100 {
		t.Errorf("CPU = %g, want clamped 100", pts[0].CPU)
	}
}
