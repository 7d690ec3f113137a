package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"saba/internal/controller"
	"saba/internal/netsim"
	"saba/internal/profiler"
	"saba/internal/rpc"
	"saba/internal/sabalib"
	"saba/internal/topology"
	"saba/internal/workload"
)

// controlParams sizes the control workload: the sabactl serve stack in
// process, a Centralized controller behind controller.Serve on an
// rpc.Server over loopback TCP, driven closed-loop through sabalib.
//
// The RPC mix is the one core.RunJobs issues, the repository's own
// client of this API: an app lifetime is one register, a conn_create for
// every shuffle pair of its placement (see shufflePairs), the matching
// conn_destroys, and one deregister. Apps are placed as the saba
// workload places them, one instance per host dealt round-robin, so on
// 144 hosts and 20 apps a lifetime is 42 or 56 conn pairs per
// register/deregister pair.
type controlParams struct {
	Topology  topology.SpineLeafConfig
	Apps      int // standing registered apps, split across clients; also sizes placements
	Clients   int // closed-loop client goroutines, one RPC connection each
	SetupReps int
	// badConn makes one conn_create name a switch as its source. Tests
	// set it to check that a failed RPC trips the output checks.
	badConn bool
}

var controlBenchParams = controlParams{Topology: fig10Fabric, Apps: 20, Clients: 2, SetupReps: 21}

// shufflePairs enumerates the connections of a job's shuffle as
// core.RunJobs announces them at its default fan-out: each node to its
// next workload.DefaultFanOut ring neighbours, capped at the job's other
// nodes.
func shufflePairs(nodes []topology.NodeID) [][2]topology.NodeID {
	n := len(nodes)
	fanOut := min(workload.DefaultFanOut, n-1)
	var pairs [][2]topology.NodeID
	for i, src := range nodes {
		for k := 1; k <= fanOut; k++ {
			pairs = append(pairs, [2]topology.NodeID{src, nodes[(i+k)%n]})
		}
	}
	return pairs
}

// dealHosts places apps one instance per host, as the at-scale studies
// do: shuffle the hosts and deal them round-robin.
func dealHosts(rng *rand.Rand, hosts []topology.NodeID, apps int) [][]topology.NodeID {
	h := append([]topology.NodeID(nil), hosts...)
	rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
	out := make([][]topology.NodeID, apps)
	for i, n := range h {
		out[i%apps] = append(out[i%apps], n)
	}
	return out
}

// controlClient is one closed-loop client: an RPC connection shared by
// the libraries of its standing apps and of the apps it cycles.
type controlClient struct {
	transport *sabalib.RPCTransport
}

// controlEnv is a booted control plane.
type controlEnv struct {
	p     controlParams
	top   *topology.Topology
	names []string // profiled app names
	// standingConns is how many connections the standing apps hold.
	standingConns int
	ctrl          *controller.Centralized
	srv           *rpc.Server
	clients       []*controlClient
	// Traced runs only: the probes and their on/off switch.
	sw     *probeSwitch
	enf    *enforceProbe
	handle *methodLatencies
}

func buildControlEnv(p controlParams, rc runConfig, t *setupTimer) (env *controlEnv, err error) {
	env = &controlEnv{p: p}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if env.top, _, err = buildFabric(p.Topology, t); err != nil {
		return env, err
	}
	rng := rand.New(rand.NewSource(rc.Seed))
	hosts := env.top.Hosts()
	var specs []workload.Spec
	var placements [][]topology.NodeID
	if err := t.phase("workload.gen_s", func() error {
		specs = workload.Synthetic(workload.SynthConfig{Count: p.Apps}, rng)
		placements = dealHosts(rng, hosts, p.Apps)
		if len(placements[p.Apps-1]) < 2 {
			return fmt.Errorf("control: %d hosts for %d apps; an app needs two", len(hosts), p.Apps)
		}
		return nil
	}); err != nil {
		return env, err
	}
	for _, s := range specs {
		env.names = append(env.names, s.Name)
	}
	var table *profiler.Table
	if err := t.phase("profiler.profile_s", func() (err error) {
		table, err = profileApps(specs)
		return err
	}); err != nil {
		return env, err
	}

	var enforcer controller.Enforcer = netsim.NewWFQ(netsim.NewNetwork(env.top))
	if rc.Trace {
		env.sw = &probeSwitch{}
		env.handle = newMethodLatencies()
		enforcer, env.enf = probeEnforcer(enforcer, env.sw)
	}
	env.ctrl, err = controller.NewCentralized(controller.Config{
		Topology: env.top, Table: table, Enforcer: enforcer, PLs: 16, Seed: rc.Seed,
	})
	if err != nil {
		return env, err
	}
	var api controller.API = env.ctrl
	if rc.Trace {
		api = probeAPI(api, env.sw, env.handle, rc.spans)
	}
	env.srv = rpc.NewServer()
	if err := controller.Serve(env.srv, api); err != nil {
		return env, err
	}
	addr, err := env.srv.Listen("127.0.0.1:0")
	if err != nil {
		return env, err
	}
	perClient := p.Apps / p.Clients
	for c := 0; c < p.Clients; c++ {
		tr, err := sabalib.DialController(addr, 5*time.Second)
		if err != nil {
			return env, err
		}
		cl := &controlClient{transport: tr}
		env.clients = append(env.clients, cl)
		for a := c * perClient; a < (c+1)*perClient; a++ {
			lib := sabalib.New(tr)
			if err := lib.Register(env.names[a]); err != nil {
				return env, err
			}
			for _, pair := range shufflePairs(placements[a]) {
				if _, err := lib.ConnCreate(pair[0], pair[1]); err != nil {
					return env, err
				}
				env.standingConns++
			}
		}
	}
	return env, nil
}

// close shuts the client connections and the server down. The standing
// registrations die with the controller.
func (env *controlEnv) close() {
	for _, c := range env.clients {
		c.transport.Close()
	}
	if env.srv != nil {
		env.srv.Close()
	}
}

// clientLog is one client goroutine's record of its RPCs.
type clientLog struct {
	lat      [][]float64          // untraced RPCs by latency window, seconds; +Inf = failed
	traced   map[string][]float64 // traced RPCs by method, successful only
	ok       [2]int64             // successful RPCs [untraced, traced]
	methods  map[string]int64     // RPCs issued by method
	issued   int64
	failed   int64
	firstErr error
}

// drive runs client ci's closed loop until stop is set: app lifetimes
// back to back, each as core.RunJobs issues it — register, conn_create
// for every shuffle pair of a fresh placement, conn_destroy for each,
// deregister — beside the standing apps.
func (env *controlEnv) drive(ci int, seed int64, start time.Time, stop *atomic.Bool, ops *atomic.Int64, spans *spanLog, log *clientLog) {
	rng := rand.New(rand.NewSource(seed))
	cl := env.clients[ci]
	hosts := env.top.Hosts()
	badConn := env.p.badConn && ci == 0
	call := func(method string, fn func() error) bool {
		traced := env.sw != nil && env.sw.on.Load()
		id := spans.id()
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		log.issued++
		log.methods[method]++
		lat := t1.Sub(t0).Seconds()
		if err != nil {
			log.failed++
			if log.firstErr == nil {
				log.firstErr = fmt.Errorf("%s: %w", method, err)
			}
			lat = math.Inf(1)
		}
		if !traced {
			w := int(t0.Sub(start) / latencyWindow)
			for len(log.lat) <= w {
				log.lat = append(log.lat, nil)
			}
			log.lat[w] = append(log.lat[w], lat)
		}
		if err != nil {
			return false
		}
		if traced {
			log.ok[1]++
			log.traced[method] = append(log.traced[method], t1.Sub(t0).Seconds())
			spans.add(id, 0, ops.Add(1), "rpc."+method, t0, t1)
		} else {
			log.ok[0]++
		}
		return true
	}
	var conns []*sabalib.Conn
	for !stop.Load() {
		lib := sabalib.New(cl.transport)
		name := env.names[rng.Intn(len(env.names))]
		// A fresh placement the size of one app's deal.
		nodes := dealHosts(rng, hosts, env.p.Apps)[0]
		if !call("register", func() error { return lib.Register(name) }) {
			continue
		}
		conns = conns[:0]
		for _, pair := range shufflePairs(nodes) {
			if badConn {
				badConn = false
				pair[0] = env.top.Switches()[0]
			}
			var conn *sabalib.Conn
			if call("conn_create", func() (err error) {
				conn, err = lib.ConnCreate(pair[0], pair[1])
				return err
			}) {
				conns = append(conns, conn)
			}
		}
		for _, conn := range conns {
			call("conn_destroy", conn.Destroy)
		}
		call("deregister", lib.Deregister)
	}
}

// traceWindow is how long the traced run keeps the probes on or off
// before switching.
const traceWindow = 200 * time.Millisecond

// latencyWindow groups RPCs for the latency figures, which are medians
// over windows. Half a second holds about five thousand RPCs, so each
// window reports its p99 with fifty samples beyond it.
const latencyWindow = 500 * time.Millisecond

// runControl measures the control workload.
func runControl(p controlParams, rc runConfig) (*outcome, error) {
	env, st, err := repeatSetup(p.SetupReps, rc.spans, func(t *setupTimer) (*controlEnv, error) {
		return buildControlEnv(p, rc, t)
	}, func(env *controlEnv) { env.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	out := newOutcome()
	out.Manifest["topology"] = p.Topology
	out.Manifest["hosts"] = len(env.top.Hosts())
	out.Manifest["apps"] = p.Apps
	out.Manifest["clients"] = p.Clients
	out.Manifest["fan_out"] = workload.DefaultFanOut
	out.Manifest["standing_conns"] = env.standingConns
	out.Manifest["setup_reps"] = p.SetupReps
	out.E2E.set("setup_s", median(st.totals), "s")

	var counters counterDelta
	if rc.Trace {
		counters = newCounterDelta(append(ctrlSources(),
			counterSource{"rpc.retries", counterOf("rpc.client.retries")},
			counterSource{"rpc.redials", counterOf("rpc.client.redials")},
			counterSource{"rpc.errors", counterOf("rpc.client.errors")})...)
	}
	mem := startMemDelta()
	logs := make([]*clientLog, p.Clients)
	var stop atomic.Bool
	var opIDs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range logs {
		logs[c] = &clientLog{traced: map[string][]float64{}, methods: map[string]int64{}}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			env.drive(c, rc.Seed*1000+int64(c), start, &stop, &opIDs, rc.spans, logs[c])
		}(c)
	}
	// Untraced: sleep out the run. Traced: alternate probe-off and
	// probe-on windows, accounting each window's time to its side.
	var windows [2]time.Duration
	deadline := start.Add(rc.duration())
	for on := false; time.Now().Before(deadline); on = !on {
		if env.sw != nil {
			env.sw.on.Store(on)
			if on {
				counters.begin()
			}
		}
		w0 := time.Now()
		time.Sleep(min(traceWindow, time.Until(deadline)))
		if env.sw == nil {
			continue
		}
		if on {
			counters.end()
			windows[1] += time.Since(w0)
		} else {
			windows[0] += time.Since(w0)
		}
	}
	if env.sw != nil {
		env.sw.on.Store(false)
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var lat [][]float64
	var ok [2]int64
	traced := map[string][]float64{}
	methods := map[string]int64{}
	var errs []error
	for _, l := range logs {
		for w, v := range l.lat {
			for len(lat) <= w {
				lat = append(lat, nil)
			}
			lat[w] = append(lat[w], v...)
		}
		ok[0] += l.ok[0]
		ok[1] += l.ok[1]
		out.Attempted += l.issued
		out.Failed += l.failed
		errs = append(errs, l.firstErr)
		for m, v := range l.traced {
			traced[m] = append(traced[m], v...)
		}
		for m, n := range l.methods {
			methods[m] += n
		}
	}
	if out.Failed > 0 {
		out.fail("%d of %d RPCs failed: %v", out.Failed, out.Attempted, errors.Join(errs...))
	}
	if got, want := env.ctrl.Apps(), p.Apps; got != want {
		out.fail("controller ends with %d apps, want the %d standing ones", got, want)
	}
	if got, want := env.ctrl.Conns(), env.standingConns; got != want {
		out.fail("controller ends with %d connections, want the %d standing ones", got, want)
	}

	out.E2E.set("peak_rss_mb", rss, "MB")
	// Windows past the run's last whole one are partial: drop them.
	if full := int(rc.duration() / latencyWindow); full >= 1 && len(lat) > full {
		lat = lat[:full]
	}
	ls := summarize(lat)
	switch {
	case rc.Trace:
		out.E2E.set("ops_per_s", float64(ok[0])/windows[0].Seconds(), "1/s")
	case rc.duration() < latencyWindow:
		out.E2E.set("ops_per_s", float64(ok[0])/elapsed, "1/s")
	default:
		// The median window's rate: a burst of load elsewhere on the
		// machine slows a few windows, not the figure.
		var rates []float64
		for _, w := range lat {
			n := 0
			for _, v := range w {
				if !math.IsInf(v, 1) {
					n++
				}
			}
			rates = append(rates, float64(n)/latencyWindow.Seconds())
		}
		out.E2E.set("ops_per_s", median(rates), "1/s")
	}
	out.E2E.set("op_p50_ms", ls.P50, "ms")
	out.E2E.set("op_tail_ms", ls.Tail, "ms")
	out.Report["op"] = "one RPC (register, deregister, conn_create or conn_destroy), client-observed"
	out.Report["latency"] = ls
	out.Report["rpcs_by_method"] = methods

	setupLayers(out.Layers, st)
	if rc.Trace {
		for _, m := range []string{"register", "deregister", "conn_create", "conn_destroy"} {
			client := median(traced[m]) * 1e6
			handle := env.handle.p50(m) * 1e6
			out.Layers.set("rpc.client_p50_us."+m, client, "us")
			out.Layers.set("controller.handle_p50_us."+m, handle, "us")
			out.Layers.set("rpc.overhead_p50_us."+m, client-handle, "us")
		}
		out.Layers.set("controller.enforce_busy_s", time.Duration(env.enf.busy.Load()).Seconds(), "s")
		out.Layers.set("controller.configure_calls", float64(env.enf.calls.Load()), "count")
		reportCtrl(out.Layers, &counters, 1)
		counters.report(out.Layers, 1, "rpc.retries", "rpc.redials", "rpc.errors")
		mem.report(out.Layers)
		out.Layers.set("trace.overhead_pct",
			overheadPct(float64(ok[0])/windows[0].Seconds(), float64(ok[1])/windows[1].Seconds()), "%")
		out.Report["traced_window_s"] = windows[1].Seconds()
	}
	return out, nil
}
