// Command sabasim runs one co-location scenario on the simulated testbed
// under a chosen bandwidth-allocation policy and reports per-job
// completion times.
//
//	sabasim -hosts 32 -jobs 16 -policy saba -seed 7
//	sabasim -policy baseline -compare saba
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"saba/internal/core"
	"saba/internal/metrics"
	"saba/internal/profiler"
	"saba/internal/telemetry"
	"saba/internal/topology"
	"saba/internal/workload"
)

var policies = map[string]core.Policy{
	"baseline":         core.PolicyBaseline,
	"ideal-maxmin":     core.PolicyIdealMaxMin,
	"saba":             core.PolicySaba,
	"saba-distributed": core.PolicySabaDistributed,
	"homa":             core.PolicyHoma,
	"sincronia":        core.PolicySincronia,
}

func main() {
	hosts := flag.Int("hosts", 32, "cluster host count")
	jobs := flag.Int("jobs", 16, "jobs per scenario")
	policy := flag.String("policy", "saba", "allocation policy: "+strings.Join(policyNames(), ", "))
	compare := flag.String("compare", "", "also run this policy and report speedups")
	seed := flag.Int64("seed", 1, "scenario seed")
	queues := flag.Int("queues", 8, "per-port queues")
	shards := flag.Int("shards", 0, "simulation engine sharding (netsim.Engine.SetShards): -1 = one shard per pod, 0 or 1 = one shard")
	showMetrics := flag.Bool("metrics", false, "print the final telemetry snapshot as JSON")
	flag.Parse()
	if *shards < -1 || *shards > 1 {
		fmt.Fprintf(os.Stderr, "sabasim: -shards %d: want -1 (one shard per pod), 0 or 1 (one shard)\n", *shards)
		os.Exit(2)
	}

	err := run(*hosts, *jobs, *policy, *compare, *seed, *queues, *shards)
	if *showMetrics {
		if merr := printMetrics(); err == nil {
			err = merr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sabasim:", err)
		os.Exit(1)
	}
}

// printMetrics dumps the process-wide telemetry snapshot (simulator event
// counts, solve-time histogram, port configurations) after the run.
func printMetrics() error {
	b, err := telemetry.Default.Snapshot().MarshalJSONIndent()
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func policyNames() []string {
	names := make([]string, 0, len(policies))
	for n := range policies {
		names = append(names, n)
	}
	return names
}

func run(hosts, jobCount int, policyName, compareName string, seed int64, queues, shards int) error {
	pol, ok := policies[policyName]
	if !ok {
		return fmt.Errorf("unknown policy %q", policyName)
	}

	// Profile the catalog for the Saba policies.
	table := profiler.NewTable()
	for _, spec := range workload.Catalog() {
		res, err := profiler.Profile(spec.Name, &profiler.SimRunner{Spec: spec}, nil, []int{3})
		if err != nil {
			return err
		}
		if err := table.PutResult(res, 3); err != nil {
			return err
		}
	}

	top, err := topology.NewSingleSwitch(topology.SingleSwitchConfig{Hosts: hosts, Queues: queues})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	setup, err := workload.NewSetup(workload.SetupConfig{Servers: hosts, JobsPerSetup: jobCount}, rng)
	if err != nil {
		return err
	}
	var jobs []core.JobSpec
	for _, p := range setup.Jobs {
		nodes := make([]topology.NodeID, len(p.Servers))
		for i, s := range p.Servers {
			nodes[i] = top.Hosts()[s]
		}
		jobs = append(jobs, core.JobSpec{Spec: p.Spec, DatasetScale: p.DatasetScale, Nodes: nodes})
	}

	res, err := core.RunJobs(top, jobs, core.RunConfig{
		Policy: pol, Table: table, Seed: seed, EngineShards: shards,
	})
	if err != nil {
		return err
	}
	fmt.Printf("policy %s on %d hosts, %d jobs (seed %d):\n", policyName, hosts, jobCount, seed)
	for i, j := range jobs {
		fmt.Printf("  job %2d %-8s x%-2d dataset %4gx  %8.1fs\n",
			i, j.Spec.Name, len(j.Nodes), j.DatasetScale, res.Completions[i])
	}
	fmt.Printf("  makespan %.1fs\n", res.Makespan)

	if compareName == "" {
		return nil
	}
	cmpPol, ok := policies[compareName]
	if !ok {
		return fmt.Errorf("unknown policy %q", compareName)
	}
	cmpRes, err := core.RunJobs(top, jobs, core.RunConfig{
		Policy: cmpPol, Table: table, Seed: seed, EngineShards: shards,
	})
	if err != nil {
		return err
	}
	var speedups []float64
	fmt.Printf("speedup of %s over %s:\n", compareName, policyName)
	for i, j := range jobs {
		s := res.Completions[i] / cmpRes.Completions[i]
		speedups = append(speedups, s)
		fmt.Printf("  %-8s %.2fx\n", j.Spec.Name, s)
	}
	g, err := metrics.GeoMean(speedups)
	if err != nil {
		return err
	}
	fmt.Printf("  average  %.2fx\n", g)
	return nil
}
