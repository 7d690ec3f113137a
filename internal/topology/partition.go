package topology

// GlobalPart marks nodes that belong to no single fabric partition: the
// spine layer, which every pod's cross-pod traffic traverses.
const GlobalPart int32 = -1

// Partition is a static view of a topology's fabric partitioning — the
// pod structure the builders annotate. The sharded simulation engine
// keys its per-pod event loops off this view: nodes (and the links whose
// endpoints share a pod) belong to exactly one partition, while links
// touching the spine layer are "cut" links — the only edges a cross-pod
// route may use to leave its endpoint pods.
//
// The view is derived purely from the immutable graph shape, so it is
// unaffected by link failures and restores: liveness epochs never change
// which partition a node or link belongs to.
type Partition struct {
	parts  int
	ofNode []int32 // node → partition; GlobalPart for spines
	ofLink []int32 // link → owning partition (the pod side of spine links)
	cut    []bool  // link → crosses a partition boundary
	hosts  [][]NodeID
}

// Partition returns the partition view, built on the first call and
// shared by every later one (it is immutable). Topologies without pod
// annotations (or with a single pod) collapse to one partition with no
// cut links, which keeps the sharded engine correct on any fabric.
func (t *Topology) Partition() *Partition {
	t.partOnce.Do(func() { t.part = t.buildPartition() })
	return t.part
}

func (t *Topology) buildPartition() *Partition {
	p := &Partition{
		ofNode: make([]int32, len(t.nodes)),
		ofLink: make([]int32, len(t.links)),
		cut:    make([]bool, len(t.links)),
	}
	maxPart := int32(-1)
	annotated := len(t.partOf) == len(t.nodes)
	for i := range t.nodes {
		part := int32(0)
		if annotated {
			part = t.partOf[i]
		}
		p.ofNode[i] = part
		if part > maxPart {
			maxPart = part
		}
	}
	if maxPart < 0 {
		// Every node is global (degenerate annotation): one partition.
		maxPart = 0
		for i := range p.ofNode {
			p.ofNode[i] = 0
		}
	}
	p.parts = int(maxPart) + 1
	p.hosts = make([][]NodeID, p.parts)
	for _, h := range t.hosts {
		part := p.ofNode[h]
		if part == GlobalPart {
			part = 0 // hosts are never spines; defensive for odd annotations
		}
		p.hosts[part] = append(p.hosts[part], h)
	}
	for i := range t.links {
		a, b := p.ofNode[t.links[i].From], p.ofNode[t.links[i].To]
		switch {
		case a == b && a != GlobalPart:
			p.ofLink[i] = a
		case a == GlobalPart && b == GlobalPart:
			p.ofLink[i], p.cut[i] = 0, true // spine-spine (not built today)
		case a == GlobalPart:
			p.ofLink[i], p.cut[i] = b, true
		case b == GlobalPart:
			p.ofLink[i], p.cut[i] = a, true
		default:
			// Endpoints in different pods: own it to the lower pod so the
			// assignment is deterministic, and mark the boundary.
			if a < b {
				p.ofLink[i] = a
			} else {
				p.ofLink[i] = b
			}
			p.cut[i] = true
		}
	}
	return p
}

// NumParts returns the number of partitions (≥ 1).
func (p *Partition) NumParts() int { return p.parts }

// OfNode returns a node's partition, or GlobalPart for spine-layer nodes.
func (p *Partition) OfNode(n NodeID) int32 {
	if int(n) < 0 || int(n) >= len(p.ofNode) {
		return GlobalPart
	}
	return p.ofNode[n]
}

// OfLink returns the partition that owns a link: the common partition of
// its endpoints, or the pod side of a spine-touching (cut) link.
func (p *Partition) OfLink(l LinkID) int32 {
	if int(l) < 0 || int(l) >= len(p.ofLink) {
		return 0
	}
	return p.ofLink[l]
}

// IsCut reports whether a link crosses the partition boundary (one of
// its endpoints is outside the owning partition). Cross-pod routes enter
// and leave pods only over cut links.
func (p *Partition) IsCut(l LinkID) bool {
	if int(l) < 0 || int(l) >= len(p.cut) {
		return false
	}
	return p.cut[l]
}

// HostsIn returns the hosts of one partition. The slice is owned by the
// Partition; callers must not mutate it.
func (p *Partition) HostsIn(part int) []NodeID {
	if part < 0 || part >= len(p.hosts) {
		return nil
	}
	return p.hosts[part]
}
