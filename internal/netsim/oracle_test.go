package netsim

import (
	"math"
	"math/rand"
	"testing"

	"saba/internal/topology"
)

// An independent oracle for the filling kernel. Every bit-exactness gate
// in this package compares engine paths that share the Filler, so a
// Filler bug would shift both sides alike. The reference below is
// textbook progressive filling with no caches, epochs, trees or
// incremental counters: each round it recounts every (link, class) group
// from the unfixed flows, recomputes every unit entitlement from scratch
// and freezes the flows of the minimal group.

// refClass is one scheduling class of a link as the reference sees it.
type refClass struct {
	weight  float64
	perFlow bool
}

// refDiscipline describes an arbitration discipline to the reference:
// a link's classes and the class a flow occupies there.
type refDiscipline struct {
	classes func(l topology.LinkID) []refClass
	classOf func(f *Flow, l topology.LinkID) int
}

// refFlat is per-flow max-min: one weight-1 per-flow class per link.
var refFlat = refDiscipline{
	classes: func(topology.LinkID) []refClass { return []refClass{{1, true}} },
	classOf: func(*Flow, topology.LinkID) int { return 0 },
}

// refWFQ reads the WFQ allocator's port configurations directly: a
// configured port has one fixed-weight queue per Weights entry, flows
// map by PLQueue (non-negative PLs only) or fall into DefaultQueue, and
// an unconfigured port is per-flow fair.
func refWFQ(w *WFQ) refDiscipline {
	return refDiscipline{
		classes: func(l topology.LinkID) []refClass {
			cfg := w.Config(l)
			if cfg == nil {
				return refFlat.classes(l)
			}
			cs := make([]refClass, len(cfg.Weights))
			for q, wt := range cfg.Weights {
				cs[q] = refClass{weight: wt}
			}
			return cs
		},
		classOf: func(f *Flow, l topology.LinkID) int {
			cfg := w.Config(l)
			if cfg == nil {
				return 0
			}
			if q, ok := cfg.PLQueue[f.PL]; ok && f.PL >= 0 {
				return q
			}
			return cfg.DefaultQueue
		},
	}
}

// refFill progressively fills the flows of ids against capRem, writing
// rates (added to the existing rates when additive) and draining capRem.
// Ties between equal minimal entitlements go to the link first reached
// by ids in path order, then to its lowest class.
func refFill(net *Network, ids []FlowID, capRem []float64, rate map[FlowID]float64, d refDiscipline, additive bool) {
	var unfixed []*Flow
	var order []topology.LinkID
	seen := map[topology.LinkID]bool{}
	for _, id := range ids {
		f := &net.flows[id]
		switch {
		case !f.active:
		case f.stalled:
			rate[id] = 0
		case len(f.Path) == 0:
			rate[id] = LocalRate
		default:
			if !additive {
				rate[id] = 0
			}
			unfixed = append(unfixed, f)
			for _, l := range f.Path {
				if !seen[l] {
					seen[l] = true
					order = append(order, l)
				}
			}
		}
	}
	for len(unfixed) > 0 {
		count := map[topology.LinkID][]float64{}
		for _, f := range unfixed {
			for _, l := range f.Path {
				if count[l] == nil {
					count[l] = make([]float64, len(d.classes(l)))
				}
				count[l][d.classOf(f, l)] += float64(f.Mult)
			}
		}
		best, bl, bq := math.Inf(1), topology.LinkID(-1), -1
		for _, l := range order {
			cs, n := d.classes(l), count[l]
			w := 0.0
			for q, c := range n {
				switch {
				case c <= 0:
				case cs[q].perFlow:
					w += cs[q].weight * c
				default:
					w += cs[q].weight
				}
			}
			if w <= 1e-12 {
				continue
			}
			share := math.Max(capRem[l], 0) / w
			for q, c := range n {
				if c <= 0 {
					continue
				}
				ent := share * cs[q].weight
				if !cs[q].perFlow {
					ent /= c
				}
				if ent < best {
					best, bl, bq = ent, l, q
				}
			}
		}
		if bq < 0 {
			return
		}
		var rest []*Flow
		for _, f := range unfixed {
			if !crosses(f, bl) || d.classOf(f, bl) != bq {
				rest = append(rest, f)
				continue
			}
			r := best * float64(f.Mult)
			rate[f.ID] += r
			for _, l := range f.Path {
				capRem[l] = math.Max(capRem[l]-r, 0)
			}
		}
		unfixed = rest
	}
}

// crosses reports whether f's path uses link l.
func crosses(f *Flow, l topology.LinkID) bool {
	for _, pl := range f.Path {
		if pl == l {
			return true
		}
	}
	return false
}

// refAllocate is the reference for a whole allocation of the active
// flows: one fill from full capacity, then — for WFQ — the allocator's
// documented work-conserving top-ups: up to four additive refills of
// the flows with more than 1e-6 of residual capacity on every link.
func refAllocate(net *Network, d refDiscipline, topUps int) map[FlowID]float64 {
	ids := net.ActiveIDs()
	capRem := make([]float64, len(net.Topology().Links()))
	for l := range capRem {
		capRem[l] = net.Capacity(topology.LinkID(l))
	}
	rate := map[FlowID]float64{}
	refFill(net, ids, capRem, rate, d, false)
	for pass := 0; pass < topUps; pass++ {
		var slack []FlowID
		for _, id := range ids {
			f := &net.flows[id]
			if len(f.Path) == 0 {
				continue
			}
			minRes := math.Inf(1)
			for _, l := range f.Path {
				minRes = math.Min(minRes, capRem[l])
			}
			if minRes > 1e-6 {
				slack = append(slack, id)
			}
		}
		if len(slack) == 0 {
			break
		}
		refFill(net, slack, capRem, rate, d, true)
	}
	return rate
}

// oracleScenario builds a random multi-tier spine-leaf fabric with a few
// failed links and capacity overrides, and a random flow population
// with Mult up to 3 and PLs in [-1, 5].
func oracleScenario(t *testing.T, rng *rand.Rand) *Network {
	t.Helper()
	leaves := 1 + rng.Intn(3)
	top, err := topology.NewSpineLeaf(topology.SpineLeafConfig{
		Pods: 1 + rng.Intn(3), ToRsPerPod: 1 + rng.Intn(3), LeavesPerPod: leaves,
		Spines: leaves * (1 + rng.Intn(2)), HostsPerToR: 1 + rng.Intn(4), Queues: 8, LinkCapacity: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	links := top.Links()
	for k := rng.Intn(4); k > 0; k-- {
		if _, err := top.FailLink(links[rng.Intn(len(links))].ID); err != nil {
			t.Fatal(err)
		}
	}
	net := NewNetwork(top)
	for k := rng.Intn(len(links)/3 + 1); k > 0; k-- {
		if err := net.SetCapacityOverride(links[rng.Intn(len(links))].ID, 100+900*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	hs := top.Hosts()
	for k := 1 + rng.Intn(60); k > 0; k-- {
		if _, err := net.AddFlow(0, FlowSpec{
			Src: hs[rng.Intn(len(hs))], Dst: hs[rng.Intn(len(hs))], Bits: 1e6,
			PL: rng.Intn(7) - 1, Mult: 1 + rng.Intn(3),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// checkAgainstOracle compares every active flow's rate with the
// reference's, within 1e-9 relative.
func checkAgainstOracle(t *testing.T, trial int, net *Network, want map[FlowID]float64) {
	t.Helper()
	net.ForEachActive(func(f *Flow) {
		w := want[f.ID]
		if math.Abs(f.Rate-w) > 1e-9*math.Max(math.Abs(f.Rate), math.Abs(w)) {
			t.Errorf("trial %d: flow %d (mult %d, PL %d, %d hops, stalled %v): rate %.17g, oracle %.17g",
				trial, f.ID, f.Mult, f.PL, len(f.Path), f.stalled, f.Rate, w)
		}
	})
}

// TestOracleIdealMaxMin checks per-flow max-min (the Filler's flat path)
// against the reference on random multi-tier fabrics.
func TestOracleIdealMaxMin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		net := oracleScenario(t, rng)
		NewIdealMaxMin(net).Allocate(net)
		checkAgainstOracle(t, trial, net, refAllocate(net, refFlat, 0))
	}
}

// TestOracleWFQ checks WFQ's classed fill and its top-ups against the
// reference: random queue counts and weights, random PL→queue maps and
// default queues, and some ports left unconfigured (per-flow fair).
func TestOracleWFQ(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		net := oracleScenario(t, rng)
		w := NewWFQ(net)
		for _, l := range net.Topology().Links() {
			if rng.Intn(4) == 0 {
				continue
			}
			nq := 1 + rng.Intn(4)
			weights := make([]float64, nq)
			for q := range weights {
				weights[q] = 0.05 + rng.Float64()
			}
			plq := map[int]int{}
			for pl := 0; pl < 5; pl++ {
				if rng.Intn(3) > 0 {
					plq[pl] = rng.Intn(nq)
				}
			}
			if err := w.Configure(l.ID, PortConfig{Weights: weights, PLQueue: plq, DefaultQueue: rng.Intn(nq)}); err != nil {
				t.Fatal(err)
			}
		}
		w.Allocate(net)
		checkAgainstOracle(t, trial, net, refAllocate(net, refWFQ(w), 4))
	}
}
