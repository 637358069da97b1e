package main

// compare.go is the compare command: it reads two sets of run records (a
// parent and a change) and judges every workload × metric. A metric is
// improved when the change wins at least 9 of 10 pairs (ties count for
// neither) and the medians differ by more than the parent's interquartile
// range; regressed when the change's median is worse than the parent's by
// more than the metric's bound from BENCHMARK.json; unresolved when the
// parent's own spread is wider than that bound; unchanged otherwise.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// quartiles returns Python's statistics.quantiles(values, n=4) (the
// default exclusive method); it needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// runSet is one side's records, by workload.
type runSet map[string][]*record

func loadRuns(dir string) (runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(buf, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		key := rec.Manifest.Workload
		if rec.Manifest.Trace == 1 {
			key += " (traced)"
		}
		set[key] = append(set[key], &rec)
	}
	for _, recs := range set {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Manifest.Seed < recs[j].Manifest.Seed })
	}
	return set, nil
}

func failedShare(recs []*record) (int, int) {
	att, fail := 0, 0
	for _, r := range recs {
		for _, c := range r.Ops {
			att += c.Attempted
			fail += c.Failed
		}
	}
	return fail, att
}

// judge classifies one metric from the paired runs.
func judge(parent, change []float64, lowerBetter bool, bound float64) string {
	if len(parent) == 0 || len(change) == 0 {
		return "unresolved"
	}
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	q1, pm, q3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	iqr := q3 - q1
	diff := cm - pm
	if 10*wins >= 9*pairs && better(cm, pm) && abs(diff) > iqr {
		return "improved"
	}
	if bound > 0 {
		worse := diff
		if !lowerBetter {
			worse = -diff
		}
		if worse > bound*abs(pm) {
			return "regressed"
		}
		if pm != 0 && iqr/abs(pm) > bound {
			allBetter := true
			for _, c := range change {
				for _, p := range parent {
					if !better(c, p) {
						allBetter = false
					}
				}
			}
			if !allBetter {
				return "unresolved"
			}
		}
	}
	return "unchanged"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cvperf compare [-bench BENCHMARK.json] <parent-runs-dir> <change-runs-dir>")
		return 2
	}
	buf, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvperf compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "cvperf compare:", err)
		return 2
	}
	type m struct {
		name  string
		lower bool
		bound float64
	}
	var e2eMetrics, layer []m
	for _, e := range spec.EndToEnd {
		e2eMetrics = append(e2eMetrics, m{e.Name, e.Better == "lower", e.Bound})
	}
	for _, e := range spec.PerLayer {
		layer = append(layer, m{e.Name, e.Better == "lower", 0})
	}
	parent, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvperf compare:", err)
		return 2
	}
	change, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvperf compare:", err)
		return 2
	}
	var keys []string
	for k := range parent {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	regressed := false
	for _, k := range keys {
		p, c := parent[k], change[k]
		pf, pa := failedShare(p)
		cf, ca := failedShare(c)
		fmt.Printf("== %s: %d parent runs, %d change runs; failed ops parent %d/%d, change %d/%d\n",
			k, len(p), len(c), pf, pa, cf, ca)
		metrics := e2eMetrics
		if strings.HasSuffix(k, "(traced)") {
			metrics = layer
		}
		for _, mt := range metrics {
			pv, cv := values(p, mt.name), values(c, mt.name)
			verdict := judge(pv, cv, mt.lower, mt.bound)
			if verdict == "regressed" {
				regressed = true
			}
			_, pm, _ := quartilesOrZero(pv)
			_, cm, _ := quartilesOrZero(cv)
			fmt.Printf("  %-32s parent %12.6g  change %12.6g  %s\n", mt.name, pm, cm, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func values(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func quartilesOrZero(v []float64) (float64, float64, float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	return quartiles(v)
}
