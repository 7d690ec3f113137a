package topology

import (
	"testing"
)

func partitionFabric(t *testing.T) *Topology {
	t.Helper()
	top, err := NewSpineLeaf(SpineLeafConfig{
		Pods: 3, ToRsPerPod: 2, LeavesPerPod: 2, Spines: 4,
		HostsPerToR: 3, Queues: 8, LinkCapacity: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// Every host must map to exactly one partition, and the per-partition
// host lists must cover all hosts without overlap.
func TestPartitionHostsCoverExactlyOnce(t *testing.T) {
	top := partitionFabric(t)
	p := top.Partition()
	if p.NumParts() != 3 {
		t.Fatalf("NumParts = %d, want 3 pods", p.NumParts())
	}
	seen := map[NodeID]int{}
	for part := 0; part < p.NumParts(); part++ {
		for _, h := range p.HostsIn(part) {
			if got := p.OfNode(h); got != int32(part) {
				t.Errorf("host %d listed in part %d but OfNode says %d", h, part, got)
			}
			seen[h]++
		}
	}
	for _, h := range top.Hosts() {
		if seen[h] != 1 {
			t.Errorf("host %d appears in %d partitions, want exactly 1", h, seen[h])
		}
		if p.OfNode(h) == GlobalPart {
			t.Errorf("host %d has no partition", h)
		}
	}
	if len(seen) != len(top.Hosts()) {
		t.Errorf("partition host lists cover %d hosts, topology has %d", len(seen), len(top.Hosts()))
	}
}

// Cross-pod routes may leave their endpoint pods only over cut links;
// intra-pod routes must never touch one. Non-cut links on any path must
// lie wholly inside the partition of one of the route's endpoints.
func TestPartitionRoutesCrossOnlyCutLinks(t *testing.T) {
	top := partitionFabric(t)
	p := top.Partition()
	hosts := top.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			path, err := top.Route(src, dst)
			if err != nil {
				t.Fatalf("route %d->%d: %v", src, dst, err)
			}
			sp, dp := p.OfNode(src), p.OfNode(dst)
			for _, l := range path {
				lk, _ := top.Link(l)
				a, b := p.OfNode(lk.From), p.OfNode(lk.To)
				if p.IsCut(l) {
					if sp == dp {
						t.Fatalf("intra-pod route %d->%d (pod %d) crosses cut link %d", src, dst, sp, l)
					}
					continue
				}
				if a != b {
					t.Fatalf("link %d joins parts %d and %d but is not cut", l, a, b)
				}
				if a != sp && a != dp {
					t.Fatalf("route %d->%d (pods %d->%d) uses non-cut link %d of pod %d",
						src, dst, sp, dp, l, a)
				}
			}
		}
	}
}

// The partition view is derived from the immutable graph shape: link
// failures and restores (which bump the liveness epoch) must not change
// any node or link assignment. That is what lets Partition build the view
// once and share it, so the views compared here are built afresh.
func TestPartitionStableAcrossFailureEpochs(t *testing.T) {
	top := partitionFabric(t)
	before := top.Partition()
	snapNode := make([]int32, len(top.Nodes()))
	snapCut := make([]bool, len(top.Links()))
	for i := range top.Nodes() {
		snapNode[i] = before.OfNode(NodeID(i))
	}
	for i := range top.Links() {
		snapCut[i] = before.IsCut(LinkID(i))
	}

	ep0 := top.Epoch()
	for i := 0; i < len(top.Links()); i += 7 {
		if _, err := top.FailLink(LinkID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if top.Epoch() == ep0 {
		t.Fatal("failures did not bump the epoch; scenario degenerate")
	}
	mid := top.buildPartition()
	for i := 0; i < len(top.Links()); i += 7 {
		if _, err := top.RestoreLink(LinkID(i)); err != nil {
			t.Fatal(err)
		}
	}
	after := top.buildPartition()
	if top.Partition() != before {
		t.Fatal("Partition rebuilt its view; want the first one shared")
	}

	for _, view := range []*Partition{mid, after} {
		if view.NumParts() != before.NumParts() {
			t.Fatalf("NumParts changed across epochs: %d vs %d", view.NumParts(), before.NumParts())
		}
		for i := range top.Nodes() {
			if view.OfNode(NodeID(i)) != snapNode[i] {
				t.Fatalf("node %d changed partition across failure epochs", i)
			}
		}
		for i := range top.Links() {
			if view.IsCut(LinkID(i)) != snapCut[i] {
				t.Fatalf("link %d changed cut status across failure epochs", i)
			}
		}
	}
}

// Topologies without pod structure collapse to a single partition with
// no cut links, so the sharded engine degrades gracefully on them.
func TestPartitionSingleSwitchCollapses(t *testing.T) {
	top, err := NewSingleSwitch(SingleSwitchConfig{Hosts: 5, LinkCapacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	p := top.Partition()
	if p.NumParts() != 1 {
		t.Fatalf("NumParts = %d, want 1", p.NumParts())
	}
	if len(p.HostsIn(0)) != 5 {
		t.Fatalf("HostsIn(0) = %d hosts, want 5", len(p.HostsIn(0)))
	}
	for i := range top.Links() {
		if p.IsCut(LinkID(i)) {
			t.Fatalf("single-switch topology has cut link %d", i)
		}
	}
}
