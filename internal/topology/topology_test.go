package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleSwitchShape(t *testing.T) {
	top, err := NewSingleSwitch(SingleSwitchConfig{Hosts: 32})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(top.Hosts()); got != 32 {
		t.Errorf("hosts = %d, want 32", got)
	}
	if got := len(top.Switches()); got != 1 {
		t.Errorf("switches = %d, want 1", got)
	}
	// 32 cables, 2 directed links each.
	if got := len(top.Links()); got != 64 {
		t.Errorf("links = %d, want 64", got)
	}
	for _, l := range top.Links() {
		if l.Capacity != DefaultLinkCapacity {
			t.Fatalf("link %d capacity = %g, want default 56G", l.ID, l.Capacity)
		}
	}
}

func TestSingleSwitchValidation(t *testing.T) {
	if _, err := NewSingleSwitch(SingleSwitchConfig{Hosts: 0}); err == nil {
		t.Error("0 hosts should fail")
	}
	if _, err := NewSingleSwitch(SingleSwitchConfig{Hosts: 4, LinkCapacity: -1}); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := NewSingleSwitch(SingleSwitchConfig{Hosts: 4, Queues: -2}); err == nil {
		t.Error("negative queues should fail")
	}
}

func TestSingleSwitchRoutes(t *testing.T) {
	top, err := NewSingleSwitch(SingleSwitchConfig{Hosts: 8})
	if err != nil {
		t.Fatal(err)
	}
	hosts := top.Hosts()
	path, err := top.Route(hosts[0], hosts[5])
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Fatalf("path length = %d, want 2 (host→switch→host)", len(path))
	}
	l0, _ := top.Link(path[0])
	l1, _ := top.Link(path[1])
	if l0.From != hosts[0] || l1.To != hosts[5] {
		t.Errorf("path endpoints wrong: %+v %+v", l0, l1)
	}
	sw := top.Switches()[0]
	if l0.To != sw || l1.From != sw {
		t.Errorf("path does not traverse the switch: %+v %+v", l0, l1)
	}
}

func TestRouteSelf(t *testing.T) {
	top, _ := NewSingleSwitch(SingleSwitchConfig{Hosts: 4})
	h := top.Hosts()[0]
	path, err := top.Route(h, h)
	if err != nil || path != nil {
		t.Errorf("self route = %v, %v; want nil, nil", path, err)
	}
}

func TestRouteValidation(t *testing.T) {
	top, _ := NewSingleSwitch(SingleSwitchConfig{Hosts: 4})
	if _, err := top.Route(NodeID(999), top.Hosts()[0]); err == nil {
		t.Error("unknown src should fail")
	}
	if _, err := top.Route(top.Hosts()[0], top.Switches()[0]); err == nil {
		t.Error("switch as dst should fail")
	}
}

func smallFabric(t *testing.T) *Topology {
	t.Helper()
	top, err := NewSpineLeaf(SpineLeafConfig{
		Pods: 3, ToRsPerPod: 3, LeavesPerPod: 2, Spines: 4, HostsPerToR: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestSpineLeafShape(t *testing.T) {
	top := smallFabric(t)
	if got := len(top.Hosts()); got != 3*3*4 {
		t.Errorf("hosts = %d, want 36", got)
	}
	// 4 spines + 3 pods × (2 leaves + 3 ToRs).
	if got := len(top.Switches()); got != 4+3*(2+3) {
		t.Errorf("switches = %d, want 19", got)
	}
}

func TestSpineLeafAllPairsRoutable(t *testing.T) {
	top := smallFabric(t)
	hosts := top.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			path, err := top.Route(src, dst)
			if err != nil {
				t.Fatalf("Route(%d,%d): %v", src, dst, err)
			}
			// Path must start at src, end at dst, and chain contiguously.
			first, _ := top.Link(path[0])
			last, _ := top.Link(path[len(path)-1])
			if first.From != src || last.To != dst {
				t.Fatalf("path endpoints wrong for %d→%d", src, dst)
			}
			for i := 1; i < len(path); i++ {
				prev, _ := top.Link(path[i-1])
				cur, _ := top.Link(path[i])
				if prev.To != cur.From {
					t.Fatalf("discontiguous path %d→%d at hop %d", src, dst, i)
				}
			}
		}
	}
}

func TestSpineLeafIntraPodStaysInPod(t *testing.T) {
	top := smallFabric(t)
	hosts := top.Hosts()
	// Hosts 0..11 are pod 0 (3 ToRs × 4 hosts); any pair within the pod
	// must not traverse a spine (path length 4: host,ToR,leaf,ToR,host).
	src, dst := hosts[0], hosts[5] // different ToRs, same pod
	path, err := top.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Fatalf("intra-pod path length = %d, want 4", len(path))
	}
	for _, lid := range path {
		l, _ := top.Link(lid)
		n, _ := top.Node(l.From)
		if n.Kind == Switch && len(n.Name) >= 5 && n.Name[:5] == "spine" {
			t.Errorf("intra-pod path traverses spine %s", n.Name)
		}
	}
}

func TestSpineLeafInterPodCrossesSpine(t *testing.T) {
	top := smallFabric(t)
	hosts := top.Hosts()
	src := hosts[0]            // pod 0
	dst := hosts[len(hosts)-1] // last pod
	path, err := top.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// host→ToR→leaf→spine→leaf→ToR→host = 6 hops.
	if len(path) != 6 {
		t.Fatalf("inter-pod path length = %d, want 6", len(path))
	}
	sawSpine := false
	for _, lid := range path {
		l, _ := top.Link(lid)
		n, _ := top.Node(l.From)
		if len(n.Name) >= 5 && n.Name[:5] == "spine" {
			sawSpine = true
		}
	}
	if !sawSpine {
		t.Error("inter-pod path does not traverse a spine")
	}
}

func TestSpineLeafDeterministicRouting(t *testing.T) {
	top := smallFabric(t)
	hosts := top.Hosts()
	a, _ := top.Route(hosts[1], hosts[30])
	b, _ := top.Route(hosts[1], hosts[30])
	if len(a) != len(b) {
		t.Fatal("routing not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("routing not deterministic")
		}
	}
}

func TestSpineLeafPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale topology build skipped in -short")
	}
	top, err := NewSpineLeaf(PaperScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(top.Hosts()); got != 1944 {
		t.Errorf("hosts = %d, want 1944", got)
	}
	if got := len(top.Switches()); got != 54+102+108 {
		t.Errorf("switches = %d, want 264", got)
	}
	// Spot-check long-distance routes.
	hosts := top.Hosts()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		if _, err := top.Route(src, dst); err != nil {
			t.Fatalf("Route(%d,%d): %v", src, dst, err)
		}
	}
}

func TestSpineLeafValidation(t *testing.T) {
	if _, err := NewSpineLeaf(SpineLeafConfig{}); err == nil {
		t.Error("zero config should fail")
	}
	if _, err := NewSpineLeaf(SpineLeafConfig{Pods: 2, ToRsPerPod: 2, LeavesPerPod: 4, Spines: 2, HostsPerToR: 2}); err == nil {
		t.Error("fewer spines than planes should fail")
	}
}

func TestQueuesAt(t *testing.T) {
	top, _ := NewSingleSwitch(SingleSwitchConfig{Hosts: 2, Queues: 5})
	for _, l := range top.Links() {
		if q := top.QueuesAt(l.ID); q != 5 {
			t.Errorf("QueuesAt(%d) = %d, want 5", l.ID, q)
		}
	}
	if q := top.QueuesAt(LinkID(999)); q != 0 {
		t.Errorf("QueuesAt(bad) = %d, want 0", q)
	}
}

func TestForwardingTableCoversAllHosts(t *testing.T) {
	single, err := NewSingleSwitch(SingleSwitchConfig{Hosts: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, top := range []*Topology{smallFabric(t), single} {
		for _, sw := range top.Switches() {
			row := top.lft[sw]
			if len(row) != len(top.Hosts()) {
				t.Fatalf("switch %d LFT row has %d entries, want %d", sw, len(row), len(top.Hosts()))
			}
			for _, h := range top.Hosts() {
				l := row[top.hostOrd[h]]
				if l < 0 {
					t.Fatalf("switch %d LFT missing host %d", sw, h)
				}
				if top.links[l].From != sw {
					t.Fatalf("switch %d LFT entry for host %d is link %d, not one of its ports", sw, h, l)
				}
			}
		}
		for _, h := range top.Hosts() {
			if top.lft[h] != nil {
				t.Fatalf("host %d has an LFT row; hosts use their default route", h)
			}
		}
	}
}

func TestNodeKindString(t *testing.T) {
	if Host.String() != "host" || Switch.String() != "switch" {
		t.Error("NodeKind.String broken")
	}
	if NodeKind(9).String() == "" {
		t.Error("unknown NodeKind should still render")
	}
}

func TestRoutePathLinksBelongToPathNodes(t *testing.T) {
	// Property over random fabrics: every route is loop-free (no repeated
	// node).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := SpineLeafConfig{
			Pods:         2 + rng.Intn(2),
			ToRsPerPod:   1 + rng.Intn(3),
			LeavesPerPod: 1 + rng.Intn(2),
			Spines:       2 + rng.Intn(3),
			HostsPerToR:  1 + rng.Intn(3),
		}
		if cfg.Spines < cfg.LeavesPerPod {
			cfg.Spines = cfg.LeavesPerPod
		}
		top, err := NewSpineLeaf(cfg)
		if err != nil {
			return false
		}
		hosts := top.Hosts()
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if src == dst {
			return true
		}
		path, err := top.Route(src, dst)
		if err != nil {
			return false
		}
		seen := map[NodeID]bool{src: true}
		for _, lid := range path {
			l, err := top.Link(lid)
			if err != nil {
				return false
			}
			if seen[l.To] {
				return false // loop
			}
			seen[l.To] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
