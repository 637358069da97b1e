package main

// layers.go turns a traced run into per-layer metrics: the server's own
// ?trace=1 spans, /statsz and /metricsz deltas over the traced phase, and
// calls into each layer's public functions timed from the benchmark's own
// code on its own checker built from the same inputs.

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
)

// layerMetric declares one per-layer metric; every traced run prints all
// of them, with 0 where the workload does not exercise the layer.
type layerMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var layerMetrics = []layerMetric{
	{"service.queue_wait_us", "us"},
	{"service.handler_us", "us"},
	{"service.wire_us", "us"},
	{"service.update_queue_wait_us", "us"},
	{"service.tuples_per_round", "count"},
	{"service.apply_us_per_tuple", "us"},
	{"replica.freeze_ms", "ms"},
	{"replica.swaps_per_round", "count"},
	{"replica.post_swap_eval_ms", "ms"},
	{"replica.read_share", "ratio"},
	{"replica.reroutes", "count/1k"},
	{"logic.parse_us", "us"},
	{"logic.eval_ms.Q1", "ms"},
	{"logic.eval_ms.Q2", "ms"},
	{"logic.eval_ms.Q3", "ms"},
	{"logic.eval_ms.Q4", "ms"},
	{"logic.eval_ms.Q5", "ms"},
	{"logic.eval_ms.area_state", "ms"},
	{"logic.eval_ms.city_state", "ms"},
	{"logic.eval_ms.cons_member", "ms"},
	{"logic.eval_ms.state_areas", "ms"},
	{"logic.eval_ms.zip_city", "ms"},
	{"core.bdd_checks", "count/1k"},
	{"core.fd_fast_path", "count/1k"},
	{"core.sql_fallbacks", "count/1k"},
	{"bdd.ops_per_check", "count"},
	{"bdd.nodes_per_check", "count"},
	{"bdd.gc_runs", "count/1k"},
	{"bdd.cache_hit_rate.apply", "ratio"},
	{"bdd.cache_hit_rate.quant", "ratio"},
	{"bdd.cache_hit_rate.replace", "ratio"},
	{"index.insert_us", "us"},
	{"index.delete_us", "us"},
	{"store.wal_append_us", "us"},
	{"store.wal_bytes_per_tuple", "B"},
	{"store.snapshot_ms", "ms"},
	{"sqlengine.witness_ms", "ms"},
	{"sqlengine.fallback_ms", "ms"},
	{"setup.generate_s", "s"},
	{"setup.ordering_s", "s"},
	{"setup.index_build_s", "s"},
	{"setup.serve_s", "s"},
	{"setup.snapshot_s", "s"},
	{"witness_p50_ms", "ms"},
	{"update_tuples_per_s", "1/s"},
	{"update_p50_ms", "ms"},
	{"update_p95_ms", "ms"},
	{"trace.overhead_check_p50_ms", "ms"},
	{"trace.overhead_check_per_s", "1/s"},
	{"trace.span_sum_over_total", "count"},
}

// spanStats accumulates span durations by name over traced requests.
type spanStats struct {
	sum   map[string]time.Duration
	count map[string]int
}

func newSpanStats() *spanStats {
	return &spanStats{sum: map[string]time.Duration{}, count: map[string]int{}}
}

func (s *spanStats) add(name string, d time.Duration) {
	s.sum[name] += d
	s.count[name]++
}

// meanMS/meanUS are the mean span duration of a name; 0 when absent.
func (s *spanStats) meanMS(name string) float64 {
	if s.count[name] == 0 {
		return 0
	}
	return float64(s.sum[name].Nanoseconds()) / float64(s.count[name]) / 1e6
}

func (s *spanStats) meanUS(name string) float64 { return s.meanMS(name) * 1000 }

// layerInputs is what the per-layer computation reads.
type layerInputs struct {
	traces   []tracedOp
	before   counters           // at the start of the traced phase
	after    counters           // at its end
	setup    map[string]float64 // setup.* stage medians
	replay   replayResult
	plain    e2e // the untraced phase of the same run
	tracedE  e2e // the traced phase
	plainAux map[string]float64
}

// e2e is one phase's end-to-end figures.
type e2e struct {
	CheckPerS, CheckP50, CheckP95 float64
}

func layerValues(in layerInputs) map[string]float64 {
	out := map[string]float64{}
	for _, m := range layerMetrics {
		out[m.Name] = 0
	}
	spans := newSpanStats()
	var tuples int
	var queueUS, handlerUS, wireUS, updQueueUS []float64
	var postSwap, fallbackMS []float64
	over := 0
	for _, op := range in.traces {
		tr := op.Trace
		var sum, queue int64
		for _, s := range tr.Spans {
			d := time.Duration(s.DurationNS)
			name := s.Name
			sum += s.DurationNS
			switch {
			case name == "queue_wait":
				queue += s.DurationNS
			case strings.HasPrefix(name, "eval:"):
				spans.add(name, d)
				if op.AfterSwap {
					postSwap = append(postSwap, float64(s.DurationNS)/1e6)
				}
			case strings.HasPrefix(name, "sql:"):
				if op.Kind == "check" {
					fallbackMS = append(fallbackMS, float64(s.DurationNS)/1e6)
				}
			default:
				spans.add(op.Kind+"/"+name, d)
			}
		}
		if sum > tr.TotalNS {
			over++
		}
		switch op.Kind {
		case "check":
			queueUS = append(queueUS, float64(queue)/1e3)
			handlerUS = append(handlerUS, float64(tr.TotalNS-sum)/1e3)
			wireUS = append(wireUS, float64(op.Latency.Nanoseconds()-tr.TotalNS)/1e3)
		case "update":
			tuples += op.Tuples
			updQueueUS = append(updQueueUS, float64(queue)/1e3)
		}
	}
	out["trace.span_sum_over_total"] = float64(over)
	out["service.queue_wait_us"] = mean(queueUS)
	out["service.handler_us"] = mean(handlerUS)
	out["service.wire_us"] = mean(wireUS)
	out["service.update_queue_wait_us"] = mean(updQueueUS)
	if tuples > 0 {
		out["service.apply_us_per_tuple"] = float64(spans.sum["update/apply"].Nanoseconds()) / 1e3 / float64(tuples)
	}
	out["replica.freeze_ms"] = spans.meanMS("update/freeze")
	out["store.wal_append_us"] = spans.meanUS("update/wal_append")
	out["replica.post_swap_eval_ms"] = mean(postSwap)
	out["sqlengine.fallback_ms"] = mean(fallbackMS)
	for _, q := range []string{"Q1", "Q2", "Q3", "Q4", "Q5", cAreaState, cCityState, cConsMember, cStateAreas, cZipCity} {
		out["logic.eval_ms."+q] = spans.meanMS("eval:" + q)
	}

	d := func(f func(c counters) float64) float64 { return f(in.after) - f(in.before) }
	dChecks := d(func(c counters) float64 { return c.Checks })
	dBatches := d(func(c counters) float64 { return c.UpdateBatches })
	dTuples := d(func(c counters) float64 { return c.UpdateTuples })
	per1k := func(x float64) float64 {
		if dChecks == 0 {
			return 0
		}
		return 1000 * x / dChecks
	}
	perCheck := func(x float64) float64 {
		if dChecks == 0 {
			return 0
		}
		return x / dChecks
	}
	if dBatches > 0 {
		out["service.tuples_per_round"] = dTuples / dBatches
	}
	if dBatches > 0 {
		out["replica.swaps_per_round"] = d(func(c counters) float64 { return c.Swaps }) / dBatches
	}
	out["replica.read_share"] = perCheck(d(func(c counters) float64 { return c.ReplicaChecks }))
	out["replica.reroutes"] = per1k(d(func(c counters) float64 { return c.Reroutes }))
	out["core.bdd_checks"] = per1k(d(func(c counters) float64 { return c.BDDChecks }))
	out["core.fd_fast_path"] = per1k(d(func(c counters) float64 { return c.FDFastPath }))
	out["core.sql_fallbacks"] = per1k(d(func(c counters) float64 { return c.SQLFallbacks }))
	out["bdd.ops_per_check"] = perCheck(d(func(c counters) float64 { return c.Ops }))
	out["bdd.nodes_per_check"] = perCheck(d(func(c counters) float64 { return c.NodesAllocated }))
	out["bdd.gc_runs"] = per1k(d(func(c counters) float64 { return c.GCRuns }))
	if dTuples > 0 {
		out["store.wal_bytes_per_tuple"] = d(func(c counters) float64 { return c.WALBytes }) / dTuples
	}
	if n := d(func(c counters) float64 { return c.SnapshotWrites }); n > 0 {
		out["store.snapshot_ms"] = 1000 * d(func(c counters) float64 { return c.SnapshotSeconds }) / n
	}
	for k, v := range in.setup {
		out[k] = v
	}
	rp := in.replay
	out["logic.parse_us"] = rp.ParseUS
	out["bdd.cache_hit_rate.apply"] = rp.HitApply
	out["bdd.cache_hit_rate.quant"] = rp.HitQuant
	out["bdd.cache_hit_rate.replace"] = rp.HitReplace
	out["index.insert_us"] = rp.InsertUS
	out["index.delete_us"] = rp.DeleteUS
	out["sqlengine.witness_ms"] = rp.SQLWitnessMS
	for k, v := range in.plainAux {
		out[k] = v
	}
	out["trace.overhead_check_p50_ms"] = in.tracedE.CheckP50 - in.plain.CheckP50
	out["trace.overhead_check_per_s"] = in.tracedE.CheckPerS - in.plain.CheckPerS
	return out
}

// replayResult is what the benchmark measured on its own checker.
type replayResult struct {
	ParseUS                        float64
	HitApply, HitQuant, HitReplace float64
	InsertUS, DeleteUS             float64
	SQLWitnessMS                   float64
}

// replayBudget bounds each direct replay's wall time.
const replayBudget = 2 * time.Second

// timeParse is the mean time of logic.ParseConstraints over texts.
func timeParse(texts []string) float64 {
	if len(texts) == 0 {
		return 0
	}
	const reps = 20
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, t := range texts {
			if _, err := logic.ParseConstraints(t); err != nil {
				return 0
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(reps*len(texts))
}

// hitRates runs checks on chk and returns the per-operation cache hit
// rates of the kernel movement they caused.
func hitRates(chk *core.Checker, run func()) (apply, quant, replace float64) {
	before := chk.KernelStats()
	run()
	after := chk.KernelStats()
	rate := func(h1, h0, l1, l0 uint64) float64 {
		if l1 == l0 {
			return 0
		}
		return float64(h1-h0) / float64(l1-l0)
	}
	return rate(after.ApplyHits, before.ApplyHits, after.ApplyLookups, before.ApplyLookups),
		rate(after.QuantHits, before.QuantHits, after.QuantLookups, before.QuantLookups),
		rate(after.ReplaceHits, before.ReplaceHits, after.ReplaceLookups, before.ReplaceLookups)
}
