// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator and control-plane packages, checks the
// workload's output, and prints its metrics as the last line of standard
// output:
//
//	perfbench -workload pod-local -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// installs timing wrappers at the layer boundaries and prints the
// per-layer metrics instead, writing the recorded spans under
// -trace-dir. BENCHMARK.json at the repository root lists both sets;
// README.md beside this file explains them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	spans   *spanLog // nil unless Trace
}

func (rc runConfig) duration() time.Duration {
	return time.Duration(rc.Seconds * float64(time.Second))
}

// outcome is what a workload run produced.
type outcome struct {
	Attempted, Failed int64
	E2E, Layers       metrics
	Problems          []string       // failed output checks
	Report            map[string]any // digest, latency detail, episode counts
	Manifest          map[string]any // workload size parameters
}

func newOutcome() *outcome {
	return &outcome{E2E: metrics{}, Layers: metrics{}, Report: map[string]any{}, Manifest: map[string]any{}}
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// setupLayers writes the set-up phases every workload reports. A phase a
// workload does not have (profiling on the simulated fabrics) is 0.
func setupLayers(m metrics, st *setupTimer) {
	for _, name := range []string{"topology.build_s", "topology.partition_s", "workload.gen_s", "profiler.profile_s"} {
		m.set(name, st.phaseMedian(name), "s")
	}
}

// workloads maps each workload name to its runner at benchmark size.
var workloads = map[string]func(runConfig) (*outcome, error){
	"pod-local": func(rc runConfig) (*outcome, error) { return runSim(podLocalParams, rc) },
	"cross-pod": func(rc runConfig) (*outcome, error) { return runSim(crossPodParams, rc) },
	"saba":      func(rc runConfig) (*outcome, error) { return runSaba(sabaBenchParams, rc) },
	"control":   func(rc runConfig) (*outcome, error) { return runControl(controlBenchParams, rc) },
}

// layerNames lists every per-layer metric. A workload leaves a layer it
// does not exercise at 0; the traced run always prints all of them.
var layerNames = map[string]string{
	"topology.build_s":                      "s",
	"topology.partition_s":                  "s",
	"workload.gen_s":                        "s",
	"profiler.profile_s":                    "s",
	"netsim.run_s":                          "s",
	"netsim.addflows_s":                     "s",
	"netsim.self_s":                         "s",
	"netsim.events":                         "count",
	"netsim.recomputes":                     "count",
	"netsim.dirty_flows":                    "count",
	"netsim.lookahead_completions":          "count",
	"netsim.alloc_calls":                    "count",
	"netsim.alloc_busy_s":                   "s",
	"netsim.alloc_flows_per_call":           "flows/call",
	"netsim.alloc_declined_ratio":           "ratio",
	"controller.register_phase_s":           "s",
	"controller.enforce_busy_s":             "s",
	"controller.configure_calls":            "count",
	"controller.solve_count":                "count",
	"controller.solcache_hit_ratio":         "ratio",
	"controller.reclusters":                 "count",
	"rpc.retries":                           "count",
	"rpc.redials":                           "count",
	"rpc.errors":                            "count",
	"runtime.gc_cycles":                     "count",
	"runtime.gc_pause_s":                    "s",
	"runtime.alloc_mb":                      "MB",
	"trace.overhead_pct":                    "%",
	"controller.handle_p50_us.register":     "us",
	"controller.handle_p50_us.deregister":   "us",
	"controller.handle_p50_us.conn_create":  "us",
	"controller.handle_p50_us.conn_destroy": "us",
	"rpc.client_p50_us.register":            "us",
	"rpc.client_p50_us.deregister":          "us",
	"rpc.client_p50_us.conn_create":         "us",
	"rpc.client_p50_us.conn_destroy":        "us",
	"rpc.overhead_p50_us.register":          "us",
	"rpc.overhead_p50_us.deregister":        "us",
	"rpc.overhead_p50_us.conn_create":       "us",
	"rpc.overhead_p50_us.conn_destroy":      "us",
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// manifest identifies the run that produced a result.
func manifest(name string, rc runConfig, sizes map[string]any) map[string]any {
	m := map[string]any{
		"workload":   name,
		"seed":       rc.Seed,
		"seconds":    rc.Seconds,
		"trace":      rc.Trace,
		"sizes":      sizes,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				m[s.Key] = s.Value
			}
		}
	}
	return m
}

// finite keeps the result line encodable: a latency made infinite by a
// failed operation is reported as the largest float.
func finite(m metrics) metrics {
	for k, v := range m {
		if math.IsInf(v.Value, 1) || math.IsNaN(v.Value) {
			v.Value = math.MaxFloat64
			m[k] = v
		}
	}
	return m
}

// runWith runs one workload and assembles its report and result lines.
func runWith(name string, fn func(runConfig) (*outcome, error), rc runConfig, traceDir string) (map[string]any, result, error) {
	if rc.Trace {
		rc.spans = newSpanLog()
	}
	steal0 := stealNow()
	out, err := fn(rc)
	if err != nil {
		return nil, result{}, err
	}
	out.Report["machine_steal_s"] = stealNow() - steal0
	res := result{
		Correct:   len(out.Problems) == 0 && out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   out.E2E,
	}
	if res.Attempted < 1 {
		res.Correct = false
		out.fail("no operation was attempted")
	}
	man := manifest(name, rc, out.Manifest)
	report := map[string]any{"manifest": man, "report": out.Report, "problems": out.Problems}
	if rc.Trace {
		report["spans"] = rc.spans.len()
		for k, unit := range layerNames {
			if _, ok := out.Layers[k]; !ok {
				out.Layers.set(k, 0, unit)
			}
		}
		res.Metrics = out.Layers
		report["untraced_in_traced_run"] = out.E2E
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, result{}, fmt.Errorf("trace dir: %w", err)
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, rc.Seed))
		if err := rc.spans.write(path, man); err != nil {
			return nil, result{}, err
		}
		report["spans_file"] = path
	}
	res.Metrics = finite(res.Metrics)
	return report, res, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadList())
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "wall seconds to measure for")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where a traced run writes its spans")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rc := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	report, res, err := runWith(*name, fn, rc, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := errors.Join(enc.Encode(report), enc.Encode(res)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output checks failed")
		os.Exit(1)
	}
}

func workloadList() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	b, _ := json.Marshal(names) // a []string always marshals
	return string(b)
}
