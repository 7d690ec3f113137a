package topology

import (
	"fmt"
)

// Gbps converts gigabits/second to the bits/second capacities links use.
const Gbps = 1e9

// DefaultLinkCapacity matches the paper's 56 Gb/s InfiniBand links.
const DefaultLinkCapacity = 56 * Gbps

// SingleSwitchConfig describes the hardware testbed of §8.1: N servers
// attached to one switch.
type SingleSwitchConfig struct {
	Hosts        int
	LinkCapacity float64 // bits/sec; 0 selects DefaultLinkCapacity
	Queues       int     // per-port queues; 0 selects 8 (the paper uses 8 of 9 VLs)
}

// NewSingleSwitch builds the testbed topology.
func NewSingleSwitch(cfg SingleSwitchConfig) (*Topology, error) {
	if cfg.Hosts < 1 {
		return nil, fmt.Errorf("topology: need at least 1 host, got %d", cfg.Hosts)
	}
	if cfg.LinkCapacity == 0 {
		cfg.LinkCapacity = DefaultLinkCapacity
	}
	if cfg.LinkCapacity <= 0 {
		return nil, fmt.Errorf("topology: invalid link capacity %g", cfg.LinkCapacity)
	}
	if cfg.Queues == 0 {
		cfg.Queues = 8
	}
	if cfg.Queues < 1 {
		return nil, fmt.Errorf("topology: invalid queue count %d", cfg.Queues)
	}

	var b builder
	sw := b.addNode(Switch, "sw0", cfg.Queues)
	b.setPart(sw, 0) // one switch, one partition
	hosts := make([]NodeID, cfg.Hosts)
	down := make([]LinkID, cfg.Hosts) // switch → hosts[i]
	for i := range hosts {
		hosts[i] = b.addNode(Host, fmt.Sprintf("h%d", i), cfg.Queues)
		b.setPart(hosts[i], 0)
		_, down[i] = b.addPair(hosts[i], sw, cfg.LinkCapacity)
	}

	// Forwarding: the switch sends to the destination's access link.
	b.initForwarding()
	t := &b.t
	row := t.lft[sw]
	for i, h := range hosts {
		row[t.hostOrd[h]] = int32(down[i])
	}
	return t, nil
}

// SpineLeafConfig describes the three-tier fabric of §8.1's simulation: a
// set of pods, each with ToR and leaf switches, plus a global spine layer
// partitioned into planes (one plane per leaf position, standard
// fabric-style striping). Every ToR connects to every leaf in its pod;
// leaf i of every pod connects to the spines of plane i.
type SpineLeafConfig struct {
	Pods         int
	ToRsPerPod   int
	LeavesPerPod int
	Spines       int
	HostsPerToR  int
	LinkCapacity float64 // 0 selects DefaultLinkCapacity
	Queues       int     // 0 selects 16 (paper: 16 VLs per port in simulation)
}

// PaperScaleConfig returns the exact configuration of the paper's
// simulated cluster: 54 spine, 102 leaf and 108 ToR switches with 18
// servers per ToR — 1,944 servers total (§8.1).
func PaperScaleConfig() SpineLeafConfig {
	return SpineLeafConfig{
		Pods:         6,
		ToRsPerPod:   18, // 6×18 = 108 ToRs
		LeavesPerPod: 17, // 6×17 = 102 leaves
		Spines:       54, // 17 planes of 3-4 spines
		HostsPerToR:  18, // 1,944 hosts
		LinkCapacity: DefaultLinkCapacity,
		Queues:       16,
	}
}

// NewSpineLeaf builds the fabric.
func NewSpineLeaf(cfg SpineLeafConfig) (*Topology, error) {
	if cfg.Pods < 1 || cfg.ToRsPerPod < 1 || cfg.LeavesPerPod < 1 || cfg.HostsPerToR < 1 {
		return nil, fmt.Errorf("topology: invalid spine-leaf shape %+v", cfg)
	}
	if cfg.Spines < cfg.LeavesPerPod {
		return nil, fmt.Errorf("topology: need at least one spine per plane (%d planes, %d spines)", cfg.LeavesPerPod, cfg.Spines)
	}
	if cfg.LinkCapacity == 0 {
		cfg.LinkCapacity = DefaultLinkCapacity
	}
	if cfg.LinkCapacity <= 0 {
		return nil, fmt.Errorf("topology: invalid link capacity %g", cfg.LinkCapacity)
	}
	if cfg.Queues == 0 {
		cfg.Queues = 16
	}
	if cfg.Queues < 1 {
		return nil, fmt.Errorf("topology: invalid queue count %d", cfg.Queues)
	}

	var b builder

	// Spine planes: spine s belongs to plane s % LeavesPerPod, at index
	// s / LeavesPerPod within it.
	spines := make([]NodeID, cfg.Spines)
	for s := range spines {
		spines[s] = b.addNode(Switch, fmt.Sprintf("spine%d", s), cfg.Queues)
	}
	planes := make([][]NodeID, cfg.LeavesPerPod)
	for s, id := range spines {
		p := s % cfg.LeavesPerPod
		planes[p] = append(planes[p], id)
	}

	// Wiring keeps the link IDs addPair returns, so the forwarding fill
	// below is slice indexing only.
	leaves := make([][]NodeID, cfg.Pods)      // [pod][leafIdx]
	tors := make([][]NodeID, cfg.Pods)        // [pod][torIdx]
	hosts := make([][][]NodeID, cfg.Pods)     // [pod][torIdx][hostIdx]
	leafUp := make([][][]LinkID, cfg.Pods)    // [pod][leafIdx][index in plane] leaf → spine
	spineDown := make([][]LinkID, cfg.Spines) // [spine][pod] spine → leaf of its plane
	torUp := make([][][]LinkID, cfg.Pods)     // [pod][torIdx][leafIdx] ToR → leaf
	leafDown := make([][][]LinkID, cfg.Pods)  // [pod][leafIdx][torIdx] leaf → ToR
	torDown := make([][][]LinkID, cfg.Pods)   // [pod][torIdx][hostIdx] ToR → host
	for s := range spineDown {
		spineDown[s] = make([]LinkID, cfg.Pods)
	}

	for p := 0; p < cfg.Pods; p++ {
		leaves[p] = make([]NodeID, cfg.LeavesPerPod)
		leafUp[p] = make([][]LinkID, cfg.LeavesPerPod)
		leafDown[p] = make([][]LinkID, cfg.LeavesPerPod)
		for l := range leaves[p] {
			leaves[p][l] = b.addNode(Switch, fmt.Sprintf("leaf%d-%d", p, l), cfg.Queues)
			b.setPart(leaves[p][l], int32(p))
			leafUp[p][l] = make([]LinkID, len(planes[l]))
			leafDown[p][l] = make([]LinkID, cfg.ToRsPerPod)
			for k, sp := range planes[l] {
				leafUp[p][l][k], spineDown[k*cfg.LeavesPerPod+l][p] = b.addPair(leaves[p][l], sp, cfg.LinkCapacity)
			}
		}
		tors[p] = make([]NodeID, cfg.ToRsPerPod)
		hosts[p] = make([][]NodeID, cfg.ToRsPerPod)
		torUp[p] = make([][]LinkID, cfg.ToRsPerPod)
		torDown[p] = make([][]LinkID, cfg.ToRsPerPod)
		for r := range tors[p] {
			tors[p][r] = b.addNode(Switch, fmt.Sprintf("tor%d-%d", p, r), cfg.Queues)
			b.setPart(tors[p][r], int32(p))
			torUp[p][r] = make([]LinkID, cfg.LeavesPerPod)
			for l := range leaves[p] {
				torUp[p][r][l], leafDown[p][l][r] = b.addPair(tors[p][r], leaves[p][l], cfg.LinkCapacity)
			}
			hosts[p][r] = make([]NodeID, cfg.HostsPerToR)
			torDown[p][r] = make([]LinkID, cfg.HostsPerToR)
			for h := range hosts[p][r] {
				id := b.addNode(Host, fmt.Sprintf("h%d-%d-%d", p, r, h), cfg.Queues)
				hosts[p][r][h] = id
				b.setPart(id, int32(p))
				_, torDown[p][r][h] = b.addPair(id, tors[p][r], cfg.LinkCapacity)
			}
		}
	}

	b.initForwarding()
	t := &b.t

	// ECMP choices per destination ordinal: the leaf plane every ToR
	// climbs to, and within plane li the spine a leaf of another pod
	// climbs to.
	plane := make([]int32, len(t.hosts))
	spineOf := make([][]int32, cfg.LeavesPerPod) // [plane][ord] index in plane
	for li := range spineOf {
		spineOf[li] = make([]int32, len(t.hosts))
	}
	for ord, dst := range t.hosts {
		plane[ord] = int32(int(hashDst(dst, 0x5aba)) % cfg.LeavesPerPod)
		for li, pl := range planes {
			spineOf[li][ord] = int32(int(hashDst(dst, uint32(li))) % len(pl))
		}
	}

	// Fill one row per switch. Up routes cover every destination first;
	// the destinations below the switch are then overwritten with down
	// routes.
	for p := 0; p < cfg.Pods; p++ {
		for r, tor := range tors[p] {
			// ToRs: up to the hashed leaf of their own pod; own hosts down.
			row := t.lft[tor]
			for ord := range row {
				row[ord] = int32(torUp[p][r][plane[ord]])
			}
			for h, dst := range hosts[p][r] {
				row[t.hostOrd[dst]] = int32(torDown[p][r][h])
			}
		}
		for li, leaf := range leaves[p] {
			// Leaves: other pods → up to the hashed spine of the leaf's
			// plane; own pod → down to the destination's ToR.
			row := t.lft[leaf]
			up, pick := leafUp[p][li], spineOf[li]
			for ord := range row {
				row[ord] = int32(up[pick[ord]])
			}
			for r := range tors[p] {
				for _, dst := range hosts[p][r] {
					row[t.hostOrd[dst]] = int32(leafDown[p][li][r])
				}
			}
		}
	}
	// Spines: down to the destination pod's leaf in their plane.
	for s, sp := range spines {
		row := t.lft[sp]
		for ord, dst := range t.hosts {
			row[ord] = int32(spineDown[s][t.partOf[dst]])
		}
	}
	return t, nil
}
