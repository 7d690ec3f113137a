package netsim

import (
	"math"
	"testing"
	"time"

	"saba/internal/topology"
)

// flipClassifier registers flows under class 0 but reports class 1 on
// every later query — an intentionally inconsistent classifier that makes
// the bottleneck class come up empty at freeze time. Run must detect the
// empty freeze set and bail out instead of spinning.
type flipClassifier struct {
	seen map[FlowID]bool
}

func (c *flipClassifier) LinkClasses(topology.LinkID) []ClassSpec {
	return []ClassSpec{{Weight: 1, PerFlow: true}, {Weight: 1, PerFlow: true}}
}

func (c *flipClassifier) FlowClass(f *Flow, l topology.LinkID) int {
	if !c.seen[f.ID] {
		c.seen[f.ID] = true
		return 0
	}
	return 1
}

func TestFillerRunEmptyFreezeBreaks(t *testing.T) {
	net, hosts := testbed(t, 2)
	id, err := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[1], Bits: 1000})
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFiller(net)
	fl.Reset(net)
	cls := &flipClassifier{seen: map[FlowID]bool{}}
	done := make(chan struct{})
	go func() {
		fl.Run(net, []FlowID{id}, cls)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run spun on an empty freeze set")
	}
	f, _ := net.Flow(id)
	if f.inRun {
		t.Error("flow left marked inRun after aborted Run")
	}
	if f.Rate != 0 {
		t.Errorf("aborted Run fixed a rate: %g", f.Rate)
	}
}

func TestFillerZeroCapacityLink(t *testing.T) {
	net, hosts := testbed(t, 3)
	a, _ := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[2], Bits: 1000})
	b, _ := net.AddFlow(0, FlowSpec{Src: hosts[1], Dst: hosts[2], Bits: 1000})
	fl := NewFiller(net)
	fl.Reset(net)
	// Starve the shared downlink outright. Progressive filling must still
	// terminate, freezing both flows at rate zero.
	fa, _ := net.Flow(a)
	fl.capRem[fa.Path[len(fa.Path)-1]] = 0
	fl.Run(net, []FlowID{a, b}, FlatClassifier{})
	for _, id := range []FlowID{a, b} {
		f, _ := net.Flow(id)
		if f.Rate != 0 {
			t.Errorf("flow %d: rate %g on a zero-capacity bottleneck, want 0", id, f.Rate)
		}
		if f.inRun {
			t.Errorf("flow %d left marked inRun", id)
		}
	}
	// The generic (classed) path must agree.
	fl.Reset(net)
	fl.capRem[fa.Path[len(fa.Path)-1]] = 0
	fl.Run(net, []FlowID{a, b}, constClassifier{})
	for _, id := range []FlowID{a, b} {
		f, _ := net.Flow(id)
		if f.Rate != 0 {
			t.Errorf("classed path, flow %d: rate %g, want 0", id, f.Rate)
		}
	}
}

// constClassifier is a two-queue WFQ-style classifier putting every flow
// in queue 0; it forces the generic (non-flat) Run path.
type constClassifier struct{}

func (constClassifier) LinkClasses(topology.LinkID) []ClassSpec {
	return []ClassSpec{{Weight: 3, PerFlow: false}, {Weight: 1, PerFlow: false}}
}
func (constClassifier) FlowClass(*Flow, topology.LinkID) int { return 0 }

func TestFillerCapacityOverrideRejectsNonPositive(t *testing.T) {
	net, _ := testbed(t, 2)
	links := net.Topology().Links()
	if err := net.SetCapacityOverride(links[0].ID, 0); err == nil {
		t.Error("zero-capacity override accepted")
	}
	if err := net.SetCapacityOverride(links[0].ID, -5); err == nil {
		t.Error("negative-capacity override accepted")
	}
	if err := net.SetCapacityOverride(topology.LinkID(len(links)), 10); err == nil {
		t.Error("out-of-range link accepted")
	}
	if err := net.SetCapacityOverride(links[0].ID, 40); err != nil {
		t.Fatal(err)
	}
	if got := net.Capacity(links[0].ID); got != 40 {
		t.Errorf("override not applied: capacity %g, want 40", got)
	}
}

func TestFillerAdditiveTopUpComposes(t *testing.T) {
	net, hosts := testbed(t, 3)
	a, _ := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[2], Bits: 1000})
	b, _ := net.AddFlow(0, FlowSpec{Src: hosts[1], Dst: hosts[2], Bits: 1000})
	fl := NewFiller(net)

	// First pass: only b runs, but its uplink is throttled to 10, leaving
	// 90 of the shared downlink unconsumed.
	fl.Reset(net)
	fb, _ := net.Flow(b)
	fl.capRem[fb.Path[0]] = 10
	fl.Run(net, []FlowID{b}, FlatClassifier{})
	if fb.Rate != 10 {
		t.Fatalf("throttled flow rate %g, want 10", fb.Rate)
	}

	// Top-up pass: a already holds a rate from elsewhere; additive mode
	// must add its entitlement (the residual 90) instead of overwriting.
	fa, _ := net.Flow(a)
	fa.Rate = 5
	fl.additive = true
	fl.Run(net, []FlowID{a}, FlatClassifier{})
	fl.additive = false
	if math.Abs(fa.Rate-95) > 1e-9 {
		t.Errorf("additive top-up: rate %g, want 95 (5 kept + 90 residual)", fa.Rate)
	}

	// Non-additive runs overwrite.
	fl.Reset(net)
	fl.Run(net, []FlowID{a, b}, FlatClassifier{})
	if math.Abs(fa.Rate-50) > 1e-9 || math.Abs(fb.Rate-50) > 1e-9 {
		t.Errorf("plain rerun: rates %g/%g, want 50/50", fa.Rate, fb.Rate)
	}
}

func TestFillerResetForTouchesOnlyPathLinks(t *testing.T) {
	net, hosts := testbed(t, 4)
	a, _ := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[1], Bits: 1000})
	fl := NewFiller(net)
	for i := range fl.capRem {
		fl.capRem[i] = -1 // poison
	}
	fl.ResetFor(net, []FlowID{a})
	fa, _ := net.Flow(a)
	onPath := map[topology.LinkID]bool{}
	for _, l := range fa.Path {
		onPath[l] = true
		if fl.capRem[l] != net.Capacity(l) {
			t.Errorf("path link %d not reset: %g", l, fl.capRem[l])
		}
	}
	for i, c := range fl.capRem {
		if !onPath[topology.LinkID(i)] && c != -1 {
			t.Errorf("off-path link %d touched by ResetFor", i)
		}
	}
}
