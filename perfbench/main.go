// Command perfbench is querylearn's benchmark: it runs the querylearnd
// stack in-process — pkg/client over loopback HTTP into internal/server,
// internal/session, the four learners and the internal/store journal, with
// internal/cluster on the cluster workload — drives it with closed-loop
// crowd workers, checks every result, and prints each metric with its unit.
// See README.md beside this file for the metrics, workloads and the layer
// map.
//
//	perfbench --workload crowd-mix --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). The exit code is non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs and schedule")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured time of one run")
	fs.IntVar(&cfg.trace, "trace", 0, "0 = end-to-end metrics (untraced), 1 = per-layer metrics (traced run)")
	fs.IntVar(&cfg.clients, "clients", 1, "closed-loop crowd workers; at most the number of CPUs")
	fs.BoolVar(&cfg.toy, "toy", false, "toy-sized inputs (the benchmark's own tests)")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build/run", "scratch directory for journals")
	fs.StringVar(&cfg.spanDir, "spans", ".bench_build/spans", "directory the traced run writes its span dump to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, workloadNames())
		return 2
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	cpus := runtime.NumCPU()
	if cfg.clients < 1 || cfg.clients > cpus {
		fmt.Fprintf(stderr, "perfbench: %d load goroutines asked for, but this machine has %d cores\n", cfg.clients, cpus)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	runtime.GOMAXPROCS(cpus)
	fmt.Fprintf(stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d clients=%d go=%s fsync=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), cfg.clients, runtime.Version(), fsyncMode)

	res, err := runWorkload(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	metrics, want := res.metrics, endToEnd
	if cfg.trace == 1 {
		metrics, want = res.layers, perLayer()
	}
	if len(metrics) != len(want) {
		fmt.Fprintf(stderr, "perfbench: reports %d metrics, declares %d\n", len(metrics), len(want))
		return 1
	}
	for _, name := range want {
		m, ok := metrics[name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s not measured\n", name)
			return 1
		}
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, note := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", note)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "# FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.failed != 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	clients  int
	toy      bool
	workDir  string
	spanDir  string
}
