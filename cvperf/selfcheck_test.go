package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// tinySizes shrinks every input and round so that each workload runs end
// to end, with all its correctness checks, in a few seconds.
var tinySizes = sizes{
	RelTuples: 2000, RefTuples: 500, CustTuples: 3000, ConsRows: 300,
	T1Checks: 20, T1WitnessEvery: 10,
	MonChecks:   20,
	ChurnChecks: 10, ChurnBatches: 12,
}

// TestSelfCheck runs every workload, untraced and traced, at tiny sizes for
// one round per phase (Seconds 0), and checks that it ends correct and
// prints every declared metric. Most of its time goes to the zip_city
// requests that fail on the named fault: about 3 s each, whatever the
// table size.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for name := range workloads {
		for trace := 0; trace <= 1; trace++ {
			rec, err := execute(runConfig{
				Workload: name, Seed: 7, Seconds: 0, Trace: trace,
				OutDir: t.TempDir(), TmpDir: t.TempDir(), Sizes: tinySizes,
			})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !rec.Correct {
				t.Fatalf("%s trace=%d: incorrect: %s", name, trace, rec.Error)
			}
			want := endToEnd
			if trace == 1 {
				want = layerMetrics
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: %s unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%d: %s = %v", name, trace, m.Name, got.Value)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if trace == 1 && rec.Metrics["trace.span_sum_over_total"].Value != 0 {
				t.Errorf("%s: %v traced requests whose spans exceed their total", name, rec.Metrics["trace.span_sum_over_total"].Value)
			}
			att, fail := 0, 0
			for _, c := range rec.Ops {
				att += c.Attempted
				fail += c.Failed
			}
			if att == 0 {
				t.Errorf("%s trace=%d: no operations attempted", name, trace)
			}
			// Only the zip_city /witnesses fails, once per round, on
			// monitor.
			wantFail := 0
			if name == "monitor" {
				wantFail = rec.Manifest.Rounds - 1
			}
			if fail != wantFail {
				t.Errorf("%s trace=%d: %d failed operations, want %d (%+v)", name, trace, fail, wantFail, rec.Ops)
			}
		}
	}
}

// TestBenchmarkJSONDeclaresTheMetrics keeps BENCHMARK.json in step with the
// metrics the runs print.
func TestBenchmarkJSONDeclaresTheMetrics(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []layerMetric `json:"end_to_end"`
		PerLayer  []layerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, runs print %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, layerMetrics) {
		t.Errorf("per_layer declares %d metrics, traced runs print %d (or names/units differ)", len(spec.PerLayer), len(layerMetrics))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s declared but not implemented", w.Name)
		}
	}
}
