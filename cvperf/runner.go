package main

// runner.go drives a deployment in whole rounds. A round gives each
// closed-loop client a fixed list of operations; the timed segment runs
// them concurrently and ends when every client has finished. Work that
// must not be timed (answer checks that need a scan, and the operations
// that fail on the named sqlengine fault) runs between segments. Every run
// therefore attempts whole rounds of the same operations, so the share of
// failed operations is the same in every run. A shorter warm-up round,
// checked but neither timed nor counted, comes first.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
)

// sample is one timed request, kept raw so quantiles can be recomputed.
type sample struct {
	Phase     string  `json:"phase"` // plain | traced
	Kind      string  `json:"kind"`  // check | witnesses | update
	Name      string  `json:"name"`  // constraint name or Q template
	Client    int     `json:"client"`
	Round     int     `json:"round"`
	StartMS   float64 `json:"start_ms"` // since the first timed round began
	LatencyMS float64 `json:"latency_ms"`
	Tuples    int     `json:"tuples,omitempty"`
}

// tracedOp is one traced request with the server's spans.
type tracedOp struct {
	Kind    string
	Name    string
	Latency time.Duration
	Trace   *service.TraceInfo
	// Tuples is an update's batch size; FellBack marks a check the
	// program decided through the SQL fallback.
	Tuples   int
	FellBack bool
	// AfterSwap marks a check whose reply epoch is newer than the same
	// client's previous check: its evaluation is the first on a version.
	AfterSwap bool
}

// opCount is attempted/failed operations of one request kind.
type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// workload is one traffic mix over one deployment.
type workload interface {
	// clients is the number of closed-loop clients.
	clients() int
	// prepare builds the next round's operations (untimed).
	prepare(rd *round) error
	// client runs client i's operations of the round.
	client(rd *round, i int) error
	// finish checks the round's deferred answers and sends its untimed
	// operations.
	finish(rd *round) error
}

// round is the state of one round, shared by its clients.
type round struct {
	r      *runner
	n      int
	phase  string // warmup | plain | traced
	traced bool
}

// ops picks a client's operation count: the workload's full count, or
// the warm-up's.
func (rd *round) ops(full, warm int) int {
	if rd.phase == "warmup" {
		return warm
	}
	return full
}

// record stores one timed sample (warm-up samples are dropped).
func (rd *round) record(kind, name string, client int, start time.Time, lat time.Duration, tuples int) {
	if rd.phase == "warmup" {
		return
	}
	rd.r.mu.Lock()
	defer rd.r.mu.Unlock()
	rd.r.samples = append(rd.r.samples, sample{
		Phase: rd.phase, Kind: kind, Name: name, Client: client, Round: rd.n,
		StartMS:   float64(start.Sub(rd.r.timedStart).Microseconds()) / 1000,
		LatencyMS: float64(lat.Nanoseconds()) / 1e6,
		Tuples:    tuples,
	})
}

// traceOp stores one traced request's spans.
func (rd *round) traceOp(op tracedOp) {
	if !rd.traced || op.Trace == nil {
		return
	}
	rd.r.mu.Lock()
	rd.r.traces = append(rd.r.traces, op)
	rd.r.mu.Unlock()
}

// count books one operation of a kind; failed marks the named fault.
// Warm-up operations are checked but not counted: like set-up, they come
// before the measured rounds.
func (rd *round) count(kind string, failed bool) {
	if rd.phase == "warmup" {
		return
	}
	rd.r.mu.Lock()
	defer rd.r.mu.Unlock()
	c := rd.r.ops[kind]
	if c == nil {
		c = &opCount{}
		rd.r.ops[kind] = c
	}
	c.Attempted++
	if failed {
		c.Failed++
	}
}

// runner owns one run's timed rounds and what they recorded.
type runner struct {
	w  workload
	mu sync.Mutex

	samples    []sample
	traces     []tracedOp
	ops        map[string]*opCount
	timedStart time.Time
	rounds     int
}

func newRunner(w workload) *runner {
	return &runner{w: w, ops: map[string]*opCount{}}
}

// runRound runs one whole round and returns its segment time.
func (r *runner) runRound(phase string) (time.Duration, error) {
	rd := &round{r: r, n: r.rounds, phase: phase, traced: phase == "traced"}
	r.rounds++
	if err := r.w.prepare(rd); err != nil {
		return 0, err
	}
	n := r.w.clients()
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	if r.timedStart.IsZero() && phase != "warmup" {
		r.timedStart = start
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.w.client(rd, i)
		}(i)
	}
	wg.Wait()
	seg := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("round %d client %d: %w", rd.n, i, err)
		}
	}
	if err := r.w.finish(rd); err != nil {
		return 0, fmt.Errorf("round %d: %w", rd.n, err)
	}
	return seg, nil
}

// runPhase runs whole rounds, at least one, until their summed segment
// time reaches d.
func (r *runner) runPhase(phase string, d time.Duration) error {
	var spent time.Duration
	for {
		seg, err := r.runRound(phase)
		if err != nil {
			return err
		}
		if spent += seg; spent >= d {
			return nil
		}
	}
}

// pick returns one kind's samples of one phase, in start order.
func (r *runner) pick(phase, kind string) []sample {
	var out []sample
	for _, s := range r.samples {
		if s.Phase == phase && s.Kind == kind {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartMS < out[j].StartMS })
	return out
}

// Each timing metric is computed on consecutive, equal-count slices of a
// phase's samples, and a run reports the median over the slices. The
// machines this runs on share their CPUs, whose speed swings by tens of
// percent over a few seconds; the median over many short slices keeps the
// slowed seconds from moving a run's figure. A slice holds at least
// minSlice samples (a p95 slice at least 200, so that ten samples lie
// beyond it), and a run has at most maxSlices slices.
const (
	minSlice  = 50
	maxSlices = 25
)

// sliced computes f on each slice of ss, of at least min samples each, and
// returns the median.
func sliced(ss []sample, min int, f func([]sample) float64) float64 {
	k := len(ss) / min
	if k > maxSlices {
		k = maxSlices
	}
	if k < 2 {
		return f(ss)
	}
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = f(ss[i*len(ss)/k : (i+1)*len(ss)/k])
	}
	return median(vals)
}

// latencyQuantile is the nearest-rank q-quantile of the samples' latencies.
func latencyQuantile(q float64) func([]sample) float64 {
	return func(ss []sample) float64 {
		lat := make([]float64, len(ss))
		for i, s := range ss {
			lat[i] = s.LatencyMS
		}
		sort.Float64s(lat)
		return quantile(lat, q)
	}
}

// rate is the closed-loop throughput of the samples: for each client, its
// completed operations (or tuples) over the time it spent waiting for
// them, summed over the clients. Time a client spent on other kinds (a
// /witnesses between checks) is not counted against the kind.
func rate(tuples bool) func([]sample) float64 {
	return func(ss []sample) float64 {
		n := map[int]float64{}
		busy := map[int]float64{}
		for _, s := range ss {
			if tuples {
				n[s.Client] += float64(s.Tuples)
			} else {
				n[s.Client]++
			}
			busy[s.Client] += s.LatencyMS / 1000
		}
		total := 0.0
		for c, k := range n {
			if busy[c] > 0 {
				total += k / busy[c]
			}
		}
		return total
	}
}

// quantile is the nearest-rank quantile of sorted values; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
