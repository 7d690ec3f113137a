// Package topology models the datacenter networks Saba runs on: hosts,
// switches, directed links (one per physical port direction), and
// destination-based linear forwarding tables (LFTs) like InfiniBand's
// subnet manager installs. The controller's path detection (paper §7.2,
// "gets the forwarding tables of switches in the network to detect the
// path of each connection") walks these tables.
//
// Two builders are provided: the 32-server single-switch testbed of §8.1
// and the three-tier spine-leaf fabric of the large-scale simulation
// (54 spine / 102 leaf / 108 ToR switches, 18 hosts per ToR → 1,944
// hosts), both parameterized so scaled-down variants can run in tests.
package topology

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// NodeID identifies a host or switch.
type NodeID int

// LinkID identifies one directed link (an output port of its From node).
type LinkID int

// NodeKind distinguishes hosts from switches.
type NodeKind int

// Node kinds.
const (
	Host NodeKind = iota
	Switch
)

func (k NodeKind) String() string {
	switch k {
	case Host:
		return "host"
	case Switch:
		return "switch"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a network element.
type Node struct {
	ID     NodeID
	Kind   NodeKind
	Name   string
	Queues int // per-output-port queue count (switches and host NICs)
}

// Link is a directed link: an output port of node From feeding node To.
type Link struct {
	ID       LinkID
	From, To NodeID
	Capacity float64 // bits per second
}

// Topology is a network graph with forwarding state. The graph shape and
// forwarding tables are immutable after construction; the only mutable
// state is link liveness (FailLink/RestoreLink), versioned by an epoch so
// route memos and controller solution caches can detect change.
type Topology struct {
	nodes []Node
	links []Link
	out   [][]LinkID          // out[node] = outgoing links
	lft   []map[NodeID]LinkID // lft[node][dstHost] = out link (hosts have single uplink)
	hosts []NodeID
	sws   []NodeID

	// defRoute[node] is the forwarding entry used for any destination the
	// node's LFT has no explicit entry for, or -1. Hosts have exactly one
	// uplink, so builders install it here instead of materializing one LFT
	// entry per (host, destination) pair — that compression is what keeps
	// table construction O(switches × hosts) rather than O(hosts²) and
	// makes the 10k+ host hyperscale fabrics buildable.
	defRoute []LinkID

	// partOf[node] is the fabric partition (pod) a node belongs to, or
	// GlobalPart for nodes shared by every pod (the spine layer). Builders
	// that have a pod structure annotate it; an empty slice means the
	// topology has no partitioning and Partition() collapses to one part.
	partOf []int32

	partOnce sync.Once
	part     *Partition // built once by Partition()

	// Failure state. down is nil until the first failure, so a topology
	// that never fails pays nothing. epoch increments on every liveness
	// change; readers use it to invalidate derived state.
	mu    sync.RWMutex
	down  []bool
	nDown int
	epoch atomic.Uint64
}

// Errors returned by topology operations.
var (
	ErrUnknownNode = errors.New("topology: unknown node")
	ErrNotHost     = errors.New("topology: endpoint is not a host")
	ErrNoRoute     = errors.New("topology: no route")
)

// builder assembles a Topology.
type builder struct {
	t Topology
}

func (b *builder) addNode(kind NodeKind, name string, queues int) NodeID {
	id := NodeID(len(b.t.nodes))
	b.t.nodes = append(b.t.nodes, Node{ID: id, Kind: kind, Name: name, Queues: queues})
	b.t.out = append(b.t.out, nil)
	b.t.lft = append(b.t.lft, nil)
	b.t.partOf = append(b.t.partOf, GlobalPart)
	b.t.defRoute = append(b.t.defRoute, -1)
	if kind == Host {
		b.t.hosts = append(b.t.hosts, id)
	} else {
		b.t.sws = append(b.t.sws, id)
	}
	return id
}

// setPart annotates a node's fabric partition (pod).
func (b *builder) setPart(id NodeID, part int32) { b.t.partOf[id] = part }

// addPair adds both directions of a physical cable.
func (b *builder) addPair(a, c NodeID, capacity float64) (LinkID, LinkID) {
	l1 := b.addLink(a, c, capacity)
	l2 := b.addLink(c, a, capacity)
	return l1, l2
}

func (b *builder) addLink(from, to NodeID, capacity float64) LinkID {
	id := LinkID(len(b.t.links))
	b.t.links = append(b.t.links, Link{ID: id, From: from, To: to, Capacity: capacity})
	b.t.out[from] = append(b.t.out[from], id)
	return id
}

// Nodes returns all nodes in ID order.
func (t *Topology) Nodes() []Node { return t.nodes }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) (Node, error) {
	if int(id) < 0 || int(id) >= len(t.nodes) {
		return Node{}, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return t.nodes[id], nil
}

// Hosts returns the IDs of all hosts.
func (t *Topology) Hosts() []NodeID { return t.hosts }

// Switches returns the IDs of all switches.
func (t *Topology) Switches() []NodeID { return t.sws }

// Links returns all directed links in ID order.
func (t *Topology) Links() []Link { return t.links }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) (Link, error) {
	if int(id) < 0 || int(id) >= len(t.links) {
		return Link{}, fmt.Errorf("topology: unknown link %d", id)
	}
	return t.links[id], nil
}

// OutLinks returns the outgoing link IDs of a node (its output ports).
func (t *Topology) OutLinks(n NodeID) []LinkID {
	if int(n) < 0 || int(n) >= len(t.out) {
		return nil
	}
	return t.out[n]
}

// ForwardingTable returns the LFT of a node: destination host → output
// link. This is what the controller's path detection reads.
func (t *Topology) ForwardingTable(n NodeID) map[NodeID]LinkID {
	if int(n) < 0 || int(n) >= len(t.lft) {
		return nil
	}
	return t.lft[n]
}

// QueuesAt returns the per-port queue count at the node that owns link id.
func (t *Topology) QueuesAt(id LinkID) int {
	l, err := t.Link(id)
	if err != nil {
		return 0
	}
	return t.nodes[l.From].Queues
}

// Route returns the directed links a flow from src to dst traverses,
// following the forwarding tables hop by hop — exactly the path-detection
// procedure of paper §7.2. src and dst must be hosts.
//
// While every link is up the forwarding-table walk is authoritative. When
// failures exist and the table path crosses a down link, Route falls back
// to the shortest live detour (deterministic BFS over up links, expanding
// ports in ID order — what the subnet manager's rerouting computes), and
// returns ErrNoRoute only when no live path exists at all.
func (t *Topology) Route(src, dst NodeID) ([]LinkID, error) {
	sn, err := t.Node(src)
	if err != nil {
		return nil, err
	}
	dn, err := t.Node(dst)
	if err != nil {
		return nil, err
	}
	if sn.Kind != Host || dn.Kind != Host {
		return nil, ErrNotHost
	}
	if src == dst {
		return nil, nil // loopback traffic does not touch the network
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.nDown == 0 {
		return t.routeLFT(src, dst)
	}
	path, err := t.routeLFT(src, dst)
	if err == nil && t.pathUpLocked(path) {
		return path, nil
	}
	return t.routeBFSLocked(src, dst)
}

// routeLFT walks the forwarding tables hop by hop, ignoring liveness.
// Nodes with no explicit entry for dst fall back to their default route
// (hosts: the single uplink).
func (t *Topology) routeLFT(src, dst NodeID) ([]LinkID, error) {
	var path []LinkID
	cur := src
	for cur != dst {
		next, ok := t.lft[cur][dst]
		if !ok {
			if d := t.defRoute[cur]; d >= 0 {
				next = d
			} else {
				return nil, fmt.Errorf("%w: from %d to %d (stuck at %d)", ErrNoRoute, src, dst, cur)
			}
		}
		path = append(path, next)
		cur = t.links[next].To
		if len(path) > len(t.nodes) {
			return nil, fmt.Errorf("topology: forwarding loop from %d to %d", src, dst)
		}
	}
	return path, nil
}

// pathUpLocked reports whether every link of a path is live.
func (t *Topology) pathUpLocked(path []LinkID) bool {
	for _, l := range path {
		if t.down[l] {
			return false
		}
	}
	return true
}

// routeBFSLocked computes the shortest live path by breadth-first search
// over up links. Hosts do not forward, so only src and dst may be hosts
// on the path. Expansion visits out-links in ID order and keeps the first
// parent found, so the detour is deterministic for a given failure set.
func (t *Topology) routeBFSLocked(src, dst NodeID) ([]LinkID, error) {
	prev := make([]LinkID, len(t.nodes))
	for i := range prev {
		prev[i] = -1
	}
	seen := make([]bool, len(t.nodes))
	seen[src] = true
	queue := make([]NodeID, 0, len(t.nodes))
	queue = append(queue, src)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == dst {
			break
		}
		if cur != src && t.nodes[cur].Kind == Host {
			continue // hosts terminate paths; they never forward
		}
		for _, l := range t.out[cur] {
			if t.down[l] {
				continue
			}
			to := t.links[l].To
			if seen[to] {
				continue
			}
			seen[to] = true
			prev[to] = l
			queue = append(queue, to)
		}
	}
	if prev[dst] < 0 {
		return nil, fmt.Errorf("%w: from %d to %d (no live path)", ErrNoRoute, src, dst)
	}
	var path []LinkID
	for cur := dst; cur != src; {
		l := prev[cur]
		path = append(path, l)
		cur = t.links[l].From
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// FailLink marks a directed link down, reporting whether the state
// changed (failing an already-down link is an idempotent no-op). Every
// change bumps the topology epoch.
func (t *Topology) FailLink(id LinkID) (bool, error) {
	if int(id) < 0 || int(id) >= len(t.links) {
		return false, fmt.Errorf("topology: unknown link %d", id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.down == nil {
		t.down = make([]bool, len(t.links))
	}
	if t.down[id] {
		return false, nil
	}
	t.down[id] = true
	t.nDown++
	t.epoch.Add(1)
	return true, nil
}

// RestoreLink brings a failed link back up, reporting whether the state
// changed. Every change bumps the topology epoch.
func (t *Topology) RestoreLink(id LinkID) (bool, error) {
	if int(id) < 0 || int(id) >= len(t.links) {
		return false, fmt.Errorf("topology: unknown link %d", id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.down == nil || !t.down[id] {
		return false, nil
	}
	t.down[id] = false
	t.nDown--
	t.epoch.Add(1)
	return true, nil
}

// FailSwitch fails every link attached to a switch (both directions of
// each cable — a powered-off switch neither sends nor receives) and
// returns the links whose state actually changed, in ID order.
func (t *Topology) FailSwitch(n NodeID) ([]LinkID, error) {
	return t.setSwitchLinks(n, (*Topology).FailLink)
}

// RestoreSwitch restores every link attached to a switch, returning the
// links whose state actually changed, in ID order.
func (t *Topology) RestoreSwitch(n NodeID) ([]LinkID, error) {
	return t.setSwitchLinks(n, (*Topology).RestoreLink)
}

func (t *Topology) setSwitchLinks(n NodeID, op func(*Topology, LinkID) (bool, error)) ([]LinkID, error) {
	node, err := t.Node(n)
	if err != nil {
		return nil, err
	}
	if node.Kind != Switch {
		return nil, fmt.Errorf("topology: node %d is not a switch", n)
	}
	var changed []LinkID
	for i := range t.links {
		if t.links[i].From != n && t.links[i].To != n {
			continue
		}
		ch, err := op(t, LinkID(i))
		if err != nil {
			return changed, err
		}
		if ch {
			changed = append(changed, LinkID(i))
		}
	}
	return changed, nil
}

// LinkUp reports whether a link is live (unknown links are not).
func (t *Topology) LinkUp(id LinkID) bool {
	if int(id) < 0 || int(id) >= len(t.links) {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.down == nil || !t.down[id]
}

// NumDown returns the count of currently failed links.
func (t *Topology) NumDown() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nDown
}

// Epoch returns the liveness version: it increments on every FailLink or
// RestoreLink that changes state. Derived caches (route memos, solution
// caches) compare epochs to detect staleness without tracking individual
// links.
func (t *Topology) Epoch() uint64 { return t.epoch.Load() }

// hashDst provides the deterministic spreading the subnet manager applies
// when several equal-cost uplinks exist: destination-based so that all
// traffic to one host takes a stable path.
func hashDst(dst NodeID, salt uint32) uint32 {
	h := fnv.New32a()
	var buf [8]byte
	v := uint64(dst)<<32 | uint64(salt)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum32()
}
