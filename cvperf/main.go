// Command cvperf is cvserved's benchmark. It assembles one deployment
// in-process through the public Go APIs, drives it over loopback HTTP with
// closed-loop clients, checks every answer against its own evaluation of
// the generated data, and prints every metric by name and unit.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash cvperf/run.sh --workload monitor --seed 1 --seconds 25 --trace 0
//	bash cvperf/run.sh compare <parent-runs-dir> <change-runs-dir>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Each run also writes its
// manifest, per-kind operation counts and raw samples to
// .bench_build/cvperf-runs/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var cfg runConfig
	flag.StringVar(&cfg.Workload, "workload", "", "workload: table1-adhoc|monitor|churn")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.Seconds, "seconds", 25, "timed seconds per run")
	flag.IntVar(&cfg.Trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.OutDir, "out", ".bench_build/cvperf-runs", "directory for the run record (manifest and raw samples)")
	flag.Parse()
	if _, ok := workloads[cfg.Workload]; !ok || cfg.Seconds < 1 || (cfg.Trace != 0 && cfg.Trace != 1) {
		fmt.Fprintf(os.Stderr, "cvperf: want --workload table1-adhoc|monitor|churn, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg.TmpDir = ".bench_build"
	cfg.Sizes = fullSizes
	rec, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvperf:", err)
	}
	if rec == nil {
		os.Exit(1)
	}
	if path, werr := rec.write(cfg.OutDir); werr != nil {
		fmt.Fprintln(os.Stderr, "cvperf: writing the run record:", werr)
	} else {
		fmt.Fprintln(os.Stderr, "cvperf: run record", path)
	}
	for kind, c := range rec.Ops {
		fmt.Printf("ops %-9s attempted %d failed %d\n", kind, c.Attempted, c.Failed)
	}
	for _, name := range rec.metricOrder() {
		m := rec.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, jerr := json.Marshal(rec.result())
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "cvperf:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !rec.Correct {
		os.Exit(1)
	}
}
