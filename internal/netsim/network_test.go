package netsim

import (
	"math"
	"testing"

	"saba/internal/topology"
)

func testbed(t *testing.T, hosts int) (*Network, []topology.NodeID) {
	t.Helper()
	top, err := topology.NewSingleSwitch(topology.SingleSwitchConfig{
		Hosts: hosts, LinkCapacity: 100, // 100 bits/sec: easy arithmetic
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewNetwork(top), top.Hosts()
}

func TestAddRemoveFlow(t *testing.T) {
	net, hosts := testbed(t, 4)
	id, err := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[1], Bits: 1000, App: 1, PL: 2, Coflow: NoCoflow})
	if err != nil {
		t.Fatal(err)
	}
	f, err := net.Flow(id)
	if err != nil {
		t.Fatal(err)
	}
	if f.Remaining != 1000 || f.App != 1 || f.PL != 2 {
		t.Errorf("flow state wrong: %+v", f)
	}
	if len(f.Path) != 2 {
		t.Errorf("path length = %d, want 2", len(f.Path))
	}
	if net.NumActive() != 1 {
		t.Errorf("NumActive = %d, want 1", net.NumActive())
	}
	for _, l := range f.Path {
		if got := net.FlowsOn(l); len(got) != 1 || got[0] != id {
			t.Errorf("FlowsOn(%d) = %v", l, got)
		}
	}
	if err := net.RemoveFlow(id); err != nil {
		t.Fatal(err)
	}
	if net.NumActive() != 0 {
		t.Errorf("NumActive after remove = %d", net.NumActive())
	}
	if err := net.RemoveFlow(id); err == nil {
		t.Error("double remove should fail")
	}
	if _, err := net.Flow(id); err == nil {
		t.Error("Flow on removed id should fail")
	}
}

func TestAddFlowValidation(t *testing.T) {
	net, hosts := testbed(t, 2)
	if _, err := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[1], Bits: 0}); err == nil {
		t.Error("zero-size flow should fail")
	}
	if _, err := net.AddFlow(0, FlowSpec{Src: topology.NodeID(99), Dst: hosts[1], Bits: 1}); err == nil {
		t.Error("unknown src should fail")
	}
}

func TestFlowIDRecycling(t *testing.T) {
	net, hosts := testbed(t, 2)
	a, _ := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[1], Bits: 1})
	net.RemoveFlow(a)
	b, _ := net.AddFlow(0, FlowSpec{Src: hosts[1], Dst: hosts[0], Bits: 1})
	if a != b {
		t.Errorf("freed ID not recycled: got %d, want %d", b, a)
	}
}

func TestCapacityOverrides(t *testing.T) {
	net, hosts := testbed(t, 2)
	top := net.Topology()
	up := top.OutLinks(hosts[0])[0]
	if c := net.Capacity(up); c != 100 {
		t.Fatalf("capacity = %g, want 100", c)
	}
	if err := net.SetCapacityOverride(up, 25); err != nil {
		t.Fatal(err)
	}
	if c := net.Capacity(up); c != 25 {
		t.Errorf("overridden capacity = %g, want 25", c)
	}
	if err := net.SetCapacityOverride(up, 0); err == nil {
		t.Error("zero override should fail")
	}
}

func TestThrottleHost(t *testing.T) {
	net, hosts := testbed(t, 3)
	if err := net.ThrottleHost(hosts[0], 0.25); err != nil {
		t.Fatal(err)
	}
	top := net.Topology()
	up := top.OutLinks(hosts[0])[0]
	if c := net.Capacity(up); math.Abs(c-25) > 1e-9 {
		t.Errorf("throttled egress = %g, want 25", c)
	}
	// The switch→host direction must be throttled too.
	lk, _ := top.Link(up)
	for _, down := range top.OutLinks(lk.To) {
		dl, _ := top.Link(down)
		if dl.To == hosts[0] {
			if c := net.Capacity(down); math.Abs(c-25) > 1e-9 {
				t.Errorf("throttled ingress = %g, want 25", c)
			}
		}
	}
	if err := net.ThrottleHost(hosts[0], 0); err == nil {
		t.Error("zero fraction should fail")
	}
	if err := net.ThrottleHost(hosts[0], 1.5); err == nil {
		t.Error("fraction > 1 should fail")
	}
	if err := net.ThrottleHost(net.Topology().Switches()[0], 0.5); err == nil {
		t.Error("throttling a switch should fail")
	}
}

func TestLinkUtilization(t *testing.T) {
	net, hosts := testbed(t, 2)
	id, _ := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[1], Bits: 1000})
	f, _ := net.Flow(id)
	f.Rate = 50
	up := net.Topology().OutLinks(hosts[0])[0]
	if u := net.LinkUtilization(up); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization = %g, want 0.5", u)
	}
	f.Rate = 200 // overload clamps at 1
	if u := net.LinkUtilization(up); u != 1 {
		t.Errorf("overloaded utilization = %g, want 1", u)
	}
}

func TestAddFlowsRollsBackOnError(t *testing.T) {
	net, hosts := testbed(t, 4)
	pre, _ := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[1], Bits: 500})
	specs := []FlowSpec{
		{Src: hosts[0], Dst: hosts[2], Bits: 1000},
		{Src: hosts[1], Dst: hosts[3], Bits: 1000},
		{Src: hosts[2], Dst: hosts[3], Bits: 0}, // invalid: must poison the batch
	}
	ids, err := net.AddFlows(0, specs)
	if err == nil {
		t.Fatal("batch with an invalid spec admitted")
	}
	if ids != nil {
		t.Errorf("failed batch returned ids %v", ids)
	}
	if net.NumActive() != 1 {
		t.Errorf("NumActive = %d after rollback, want 1 (the pre-existing flow)", net.NumActive())
	}
	for _, lk := range net.Topology().Links() {
		for _, fid := range net.FlowsOn(lk.ID) {
			if fid != pre {
				t.Errorf("link %d still lists rolled-back flow %d", lk.ID, fid)
			}
		}
	}
	// The network remains usable: the same valid prefix admits cleanly.
	ids, err = net.AddFlows(0, specs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || net.NumActive() != 3 {
		t.Errorf("post-rollback admission: ids %v, active %d", ids, net.NumActive())
	}
}

// checkLinkIndex verifies the linkFlows/pathPos cross-index invariant:
// every active flow appears exactly once on each path link, at the
// position its pathPos records.
func checkLinkIndex(t *testing.T, net *Network) {
	t.Helper()
	for id := range net.flows {
		f := &net.flows[id]
		if !f.active {
			continue
		}
		for k, l := range f.Path {
			fs := net.linkFlows[l]
			i := int(f.pathPos[k])
			if i < 0 || i >= len(fs) || fs[i] != FlowID(id) {
				t.Fatalf("flow %d link %d: pathPos %d does not point back (len %d)", id, l, i, len(fs))
			}
		}
	}
	for l, fs := range net.linkFlows {
		for _, fid := range fs {
			if !net.flows[fid].active {
				t.Fatalf("link %d lists inactive flow %d", l, fid)
			}
		}
	}
}

func TestRemoveFlowKeepsIndexConsistent(t *testing.T) {
	net, hosts := testbed(t, 4)
	var ids []FlowID
	// Many overlapping flows so swap-removes genuinely relocate entries.
	for i := 0; i < 12; i++ {
		id, err := net.AddFlow(0, FlowSpec{
			Src: hosts[i%4], Dst: hosts[(i+1+i%3)%4], Bits: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	checkLinkIndex(t, net)
	// Remove out of order: middle, head, tail, then the rest interleaved.
	order := []int{5, 0, 11, 3, 8, 1, 10, 2, 7, 4, 9, 6}
	for _, k := range order {
		if err := net.RemoveFlow(ids[k]); err != nil {
			t.Fatalf("remove %d: %v", ids[k], err)
		}
		checkLinkIndex(t, net)
	}
	if net.NumActive() != 0 {
		t.Errorf("NumActive = %d after removing all", net.NumActive())
	}
}
