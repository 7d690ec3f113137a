package main

import (
	"sync"
	"sync/atomic"
	"time"

	"saba/internal/controller"
	"saba/internal/netsim"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// The probes below are the traced run's timing wrappers. Each sits at a
// public boundary of one layer and forwards every call unchanged, so the
// engine and the controller take the same code paths with or without
// them; they only add clock reads and counters.

// allocStats aggregates allocator calls across an allocator and all of
// its shard clones. busy sums call durations (clones may run in parallel
// on shard workers, so it can exceed wall time); union is the wall time
// during which at least one call was running, which is what the engine
// loop's self time is computed against.
type allocStats struct {
	mu       sync.Mutex
	inflight int
	unionT0  time.Time
	union    time.Duration
	busy     time.Duration
	calls    int64
	scoped   int64
	declined int64
	flows    int64
}

func (s *allocStats) begin() time.Time {
	s.mu.Lock()
	now := time.Now()
	if s.inflight == 0 {
		s.unionT0 = now
	}
	s.inflight++
	s.mu.Unlock()
	return now
}

// end closes a call that handed flows to the allocator; scoped marks an
// AllocateScoped call and declined one that returned false.
func (s *allocStats) end(t0 time.Time, flows int, scoped, declined bool) {
	s.mu.Lock()
	now := time.Now()
	s.busy += now.Sub(t0)
	s.inflight--
	if s.inflight == 0 {
		s.union += now.Sub(s.unionT0)
	}
	s.calls++
	if scoped {
		s.scoped++
	}
	if declined {
		s.declined++
	} else {
		s.flows += int64(flows)
	}
	s.mu.Unlock()
}

// allocProbe times an Allocator.
type allocProbe struct {
	inner netsim.Allocator
	st    *allocStats
}

// shardableProbe is allocProbe for a ShardableAllocator: the engine only
// shards allocation when the allocator implements the interface, so the
// probe implements it exactly when the wrapped allocator does.
type shardableProbe struct{ allocProbe }

// probeAllocator wraps a with timing that reports into st.
func probeAllocator(a netsim.Allocator, st *allocStats) netsim.Allocator {
	p := allocProbe{inner: a, st: st}
	if _, ok := a.(netsim.ShardableAllocator); ok {
		return &shardableProbe{p}
	}
	return &p
}

func (p *allocProbe) Name() string { return p.inner.Name() }

func (p *allocProbe) Allocate(net *netsim.Network) {
	t0 := p.st.begin()
	p.inner.Allocate(net)
	p.st.end(t0, net.NumActive(), false, false)
}

func (p *allocProbe) AllocateScoped(net *netsim.Network, ids []netsim.FlowID) bool {
	t0 := p.st.begin()
	ok := p.inner.AllocateScoped(net, ids)
	p.st.end(t0, len(ids), true, !ok)
	return ok
}

// ShardClone wraps each clone, so work done on shard workers is counted.
func (p *shardableProbe) ShardClone() netsim.Allocator {
	c := p.inner.(netsim.ShardableAllocator).ShardClone()
	if c == nil {
		return nil
	}
	return probeAllocator(c, p.st)
}

// report writes the allocator layer's figures, divided by per (the
// number of traced episodes) for the time and call counts.
func (s *allocStats) report(m metrics, per float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m.set("netsim.alloc_calls", float64(s.calls)/per, "count")
	m.set("netsim.alloc_busy_s", s.busy.Seconds()/per, "s")
	fpc, dr := 0.0, 0.0
	if ok := s.calls - s.declined; ok > 0 {
		fpc = float64(s.flows) / float64(ok)
	}
	if s.scoped > 0 {
		dr = float64(s.declined) / float64(s.scoped)
	}
	m.set("netsim.alloc_flows_per_call", fpc, "flows/call")
	m.set("netsim.alloc_declined_ratio", dr, "ratio")
}

// probeSwitch turns the control workload's probes on and off between
// measurement windows of one traced run.
type probeSwitch struct{ on atomic.Bool }

// methodLatencies collects per-method durations from concurrent callers.
type methodLatencies struct {
	mu  sync.Mutex
	lat map[string][]float64
}

func newMethodLatencies() *methodLatencies {
	return &methodLatencies{lat: map[string][]float64{}}
}

func (m *methodLatencies) add(method string, d time.Duration) {
	m.mu.Lock()
	m.lat[method] = append(m.lat[method], d.Seconds())
	m.mu.Unlock()
}

func (m *methodLatencies) p50(method string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return median(m.lat[method])
}

// apiProbe times the controller API behind controller.Serve: the
// server-side handling time of each method, without RPC framing.
type apiProbe struct {
	inner controller.API
	sw    *probeSwitch
	lat   *methodLatencies
	spans *spanLog
}

// apiProbeFull is apiProbe for a deployment that also observes slowdowns
// and registers tenants (Centralized). controller.Serve type-asserts for
// both extensions, so the probe forwards them only when the wrapped
// value has them; a deployment with neither (Mesh) gets apiProbe.
type apiProbeFull struct{ *apiProbe }

func probeAPI(api controller.API, sw *probeSwitch, lat *methodLatencies, spans *spanLog) controller.API {
	p := &apiProbe{inner: api, sw: sw, lat: lat, spans: spans}
	_, obs := api.(controller.SlowdownObserver)
	_, ten := api.(controller.TenantRegistrar)
	if obs && ten {
		return apiProbeFull{p}
	}
	return p
}

// timed runs fn, recording its duration under method while the switch
// is on.
func (p *apiProbe) timed(method string, fn func()) {
	if !p.sw.on.Load() {
		fn()
		return
	}
	id := p.spans.id()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	p.lat.add(method, t1.Sub(t0))
	p.spans.add(id, 0, 0, "controller."+method, t0, t1)
}

func (p *apiProbe) Register(name string) (id controller.AppID, pl int, err error) {
	p.timed("register", func() { id, pl, err = p.inner.Register(name) })
	return
}

func (p *apiProbe) Deregister(id controller.AppID) (err error) {
	p.timed("deregister", func() { err = p.inner.Deregister(id) })
	return
}

func (p *apiProbe) ConnCreate(id controller.AppID, src, dst topology.NodeID) (cid controller.ConnID, err error) {
	p.timed("conn_create", func() { cid, err = p.inner.ConnCreate(id, src, dst) })
	return
}

func (p *apiProbe) ConnDestroy(cid controller.ConnID) (err error) {
	p.timed("conn_destroy", func() { err = p.inner.ConnDestroy(cid) })
	return
}

func (p *apiProbe) PL(id controller.AppID) (pl int, err error) {
	p.timed("pl", func() { pl, err = p.inner.PL(id) })
	return
}

func (p apiProbeFull) ObserveSlowdown(id controller.AppID, bwFraction, observed float64) (bool, error) {
	return p.inner.(controller.SlowdownObserver).ObserveSlowdown(id, bwFraction, observed)
}

func (p apiProbeFull) RegisterTenant(name string, min float64) (controller.TenantID, error) {
	return p.inner.(controller.TenantRegistrar).RegisterTenant(name, min)
}

func (p apiProbeFull) RegisterIn(tenant controller.TenantID, name string) (controller.AppID, int, error) {
	return p.inner.(controller.TenantRegistrar).RegisterIn(tenant, name)
}

// enforceProbe times the controller's pushes of port configurations to
// the data plane (controller.Config.Enforcer).
type enforceProbe struct {
	inner controller.Enforcer
	sw    *probeSwitch
	busy  atomic.Int64 // nanoseconds
	calls atomic.Int64
}

// deconfProbe is enforceProbe for an enforcer that can also clear ports;
// the controller looks for controller.Deconfigurer by type assertion.
type deconfProbe struct{ *enforceProbe }

func probeEnforcer(e controller.Enforcer, sw *probeSwitch) (controller.Enforcer, *enforceProbe) {
	p := &enforceProbe{inner: e, sw: sw}
	if _, ok := e.(controller.Deconfigurer); ok {
		return deconfProbe{p}, p
	}
	return p, p
}

func (p *enforceProbe) Configure(port topology.LinkID, cfg netsim.PortConfig) error {
	if !p.sw.on.Load() {
		return p.inner.Configure(port, cfg)
	}
	t0 := time.Now()
	err := p.inner.Configure(port, cfg)
	p.busy.Add(int64(time.Since(t0)))
	p.calls.Add(1)
	return err
}

func (p deconfProbe) Deconfigure(port topology.LinkID) {
	if !p.sw.on.Load() {
		p.inner.(controller.Deconfigurer).Deconfigure(port)
		return
	}
	t0 := time.Now()
	p.inner.(controller.Deconfigurer).Deconfigure(port)
	p.busy.Add(int64(time.Since(t0)))
	p.calls.Add(1)
}

// counterSource names a monotone telemetry.Default figure.
type counterSource struct {
	metric string
	value  func() uint64
}

func counterOf(name string) func() uint64 { return telemetry.Default.Counter(name).Value }

func histCountOf(name string) func() uint64 { return telemetry.Default.Histogram(name).Count }

// counterDelta sums the growth of telemetry.Default figures over the
// intervals between begin and end calls.
type counterDelta struct {
	srcs  []counterSource
	start []uint64
	sum   map[string]uint64
}

func newCounterDelta(srcs ...counterSource) counterDelta {
	return counterDelta{srcs: srcs, start: make([]uint64, len(srcs)), sum: map[string]uint64{}}
}

func (d *counterDelta) begin() {
	for i, s := range d.srcs {
		d.start[i] = s.value()
	}
}

func (d *counterDelta) end() {
	for i, s := range d.srcs {
		d.sum[s.metric] += s.value() - d.start[i]
	}
}

// report writes the summed growth of each named figure divided by per.
func (d *counterDelta) report(m metrics, per float64, names ...string) {
	for _, n := range names {
		m.set(n, float64(d.sum[n])/per, "count")
	}
}

// ratio returns num/(num+other) of the summed growth, 0 when both are 0.
func (d *counterDelta) ratio(num, other string) float64 {
	a, b := d.sum[num], d.sum[other]
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// ctrlSources are the centralized controller's counters and its
// Eq. 2 solve histogram.
func ctrlSources() []counterSource {
	l := func(name string) string { return telemetry.Label(name, "deploy", "centralized") }
	return []counterSource{
		{"controller.solve_count", histCountOf(l("controller.solve_seconds"))},
		{"controller.reclusters", counterOf(l("controller.reclusters"))},
		{"solcache_hits", counterOf(l("controller.solcache_hits"))},
		{"solcache_misses", counterOf(l("controller.solcache_misses"))},
	}
}

// reportCtrl writes the controller counters' per-operation growth.
func reportCtrl(m metrics, d *counterDelta, per float64) {
	d.report(m, per, "controller.solve_count", "controller.reclusters")
	m.set("controller.solcache_hit_ratio", d.ratio("solcache_hits", "solcache_misses"), "ratio")
}
