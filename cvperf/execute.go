package main

// execute.go runs one workload: generate the inputs, set the deployment up
// several times (reporting the median), drive whole rounds, check the
// final state, and assemble the run record.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/relation"
)

// setupRepeats is how many times a run sets its deployment up; setup_s is
// the median.
const setupRepeats = 3

type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    int
	OutDir   string
	TmpDir   string
	Sizes    sizes
}

// workloadInfo is the fixed description of a workload.
type workloadInfo struct {
	CacheRegime string
	FlushPolicy string
}

var workloads = map[string]workloadInfo{
	"table1-adhoc": {"cold: fresh constants on every request, working set larger than the operation caches", "none (no data directory)"},
	"monitor":      {"warm: the same registered constraints re-checked on warmed replicas", "none (no data directory)"},
	"churn":        {"cold after every swap: each batch publishes a version replicas re-adopt", "fsync=batch (the sandbox's disk)"},
}

// endToEnd declares the end-to-end metrics every untraced run prints.
var endToEnd = []layerMetric{
	{"setup_s", "s"},
	{"check_per_s", "1/s"},
	{"check_p50_ms", "ms"},
	{"check_p95_ms", "ms"},
	{"index_nodes", "count"},
	{"heap_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// manifest records what a run ran on.
type manifest struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Seconds     int       `json:"seconds"`
	Trace       int       `json:"trace"`
	NumCPU      int       `json:"nproc"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	GoVersion   string    `json:"go_version"`
	Commit      string    `json:"commit"`
	SourceHash  string    `json:"source_sha256"`
	CacheRegime string    `json:"cache_regime"`
	FlushPolicy string    `json:"flush_policy"`
	Sizes       sizes     `json:"sizes"`
	Clients     int       `json:"clients"`
	Rounds      int       `json:"rounds"`
	Started     time.Time `json:"started"`
	Elapsed     float64   `json:"elapsed_s"`
}

// record is everything one run produced.
type record struct {
	Manifest manifest            `json:"manifest"`
	Correct  bool                `json:"correct"`
	Error    string              `json:"error,omitempty"`
	Ops      map[string]*opCount `json:"ops"`
	Metrics  map[string]metric   `json:"metrics"`
	Setups   []setupTimes        `json:"setups"`
	Samples  []sample            `json:"samples"`
}

func (r *record) result() any {
	att, fail := 0, 0
	for _, c := range r.Ops {
		att += c.Attempted
		fail += c.Failed
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, att, fail, r.Metrics}
}

func (r *record) metricOrder() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *record) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	m := r.Manifest
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d-%d.json", m.Workload, m.Seed, m.Trace, m.Started.UnixNano()))
	buf, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}

// execute runs one workload and returns its record; the record is nil only
// when nothing could be measured.
func execute(cfg runConfig) (*record, error) {
	info := workloads[cfg.Workload]
	rec := &record{
		Manifest: manifest{
			Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			CacheRegime: info.CacheRegime, FlushPolicy: info.FlushPolicy, Sizes: cfg.Sizes,
			Started: time.Now(),
		},
		Ops:     map[string]*opCount{},
		Metrics: map[string]metric{},
	}
	rec.Manifest.Commit, rec.Manifest.SourceHash = sourceIdentity()
	err := measure(cfg, rec)
	rec.Manifest.Elapsed = time.Since(rec.Manifest.Started).Seconds()
	if err != nil {
		rec.Error = err.Error()
		rec.Correct = false
		if len(rec.Metrics) == 0 {
			return nil, err
		}
		return rec, err
	}
	rec.Correct = true
	return rec, nil
}

func measure(cfg runConfig, rec *record) error {
	genStart := time.Now()
	var (
		spec     deploySpec
		base     *relation.Catalog
		t1       *table1Inputs
		cust     *custInputs
		ordIdx   []indexSpec
		regTexts []string
		err      error
	)
	switch cfg.Workload {
	case "table1-adhoc":
		t1, err = genTable1(cfg.Sizes)
		if err != nil {
			return err
		}
		base = t1.cat
		ordIdx = []indexSpec{{"REL", "REL", nil}, {"REF", "REF", nil}}
		spec = deploySpec{kind: deploySingle, indices: ordIdx}
	default:
		cust, err = genCustomers(cfg.Sizes, cfg.Seed)
		if err != nil {
			return err
		}
		base = cust.cat
		spec = deploySpec{kind: deploySingle, indices: custIndices, constraints: cust.constraintText(), dataRoot: cfg.TmpDir}
		ordIdx = custIndices
		if cfg.Workload == "churn" {
			spec.kind = deployDurable
			if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
				return err
			}
		}
		regTexts = strings.Split(strings.TrimSpace(spec.constraints), "\n")
	}
	generate := time.Since(genStart).Seconds()

	// Set up several times; keep the last deployment to serve.
	var dep *deployment
	var heapBase uint64
	for i := 0; i < setupRepeats; i++ {
		if dep != nil {
			if err := dep.close(); err != nil {
				return err
			}
			dep = nil
		}
		heapBase = heapInUse()
		d, tm, err := deploy(spec, base.Clone())
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		dep = d
		rec.Setups = append(rec.Setups, tm)
	}
	defer func() {
		if dep != nil {
			dep.close()
		}
	}()
	heapMB := 0.0
	if h := heapInUse(); h > heapBase {
		heapMB = float64(h-heapBase) / (1 << 20)
	}
	var setupTotal []float64
	for _, s := range rec.Setups {
		setupTotal = append(setupTotal, s.Total)
	}

	cls := []*httpClient{newHTTPClient(dep.url), newHTTPClient(dep.url)}
	defer func() {
		for _, c := range cls {
			c.close()
		}
	}()
	start, err := cls[0].readCounters()
	if err != nil {
		return err
	}
	indexNodes := start.PrimaryLiveNodes

	var w workload
	var cw *custWorkload
	var tw *table1Workload
	if t1 != nil {
		o, err := newTable1Oracle(base, t1.domSize)
		if err != nil {
			return err
		}
		tw = &table1Workload{in: t1, oracle: o, rng: newRand(cfg.Seed ^ 0x7ab1e1), cls: cls, perRound: cfg.Sizes.T1Checks, witnessEvery: cfg.Sizes.T1WitnessEvery}
		w = tw
	} else {
		mode := map[string]custMode{"monitor": modeMonitor, "churn": modeChurn}[cfg.Workload]
		cw = newCustWorkload(mode, cust, cls, cfg.Seed, cfg.Sizes)
		w = cw
	}
	r := newRunner(w)
	if _, err := r.runRound("warmup"); err != nil {
		return err
	}
	window := time.Duration(cfg.Seconds) * time.Second
	var before, after counters
	if cfg.Trace == 0 {
		err = r.runPhase("plain", window)
	} else {
		if err = r.runPhase("plain", window/2); err == nil {
			if before, err = cls[0].readCounters(); err == nil {
				if err = r.runPhase("traced", window/2); err == nil {
					after, err = cls[0].readCounters()
				}
			}
		}
	}
	rec.Ops = r.ops
	rec.Samples = r.samples
	rec.Manifest.Clients = len(cls)
	rec.Manifest.Rounds = r.rounds
	if err != nil {
		return err
	}
	if cw != nil {
		if err := cw.checkFinal(cls[0]); err != nil {
			return err
		}
	}
	if err := dep.close(); err != nil {
		return err
	}
	dep = nil

	plain := phaseE2E(r, "plain")
	if cfg.Trace == 0 {
		rec.Metrics["setup_s"] = metric{median(setupTotal), "s"}
		rec.Metrics["check_per_s"] = metric{plain.CheckPerS, "1/s"}
		rec.Metrics["check_p50_ms"] = metric{plain.CheckP50, "ms"}
		rec.Metrics["check_p95_ms"] = metric{plain.CheckP95, "ms"}
		rec.Metrics["index_nodes"] = metric{indexNodes, "count"}
		rec.Metrics["heap_mb"] = metric{heapMB, "MB"}
		return nil
	}

	// Traced run: per-layer metrics.
	ordering, err := timeOrdering(base, ordIdx)
	if err != nil {
		return err
	}
	stage := func(f func(s setupTimes) float64) float64 {
		var v []float64
		for _, s := range rec.Setups {
			v = append(v, f(s))
		}
		return median(v)
	}
	setup := map[string]float64{
		"setup.generate_s":    generate,
		"setup.ordering_s":    ordering,
		"setup.index_build_s": stage(func(s setupTimes) float64 { return s.IndexBuild }),
		"setup.serve_s":       stage(func(s setupTimes) float64 { return s.Serve }),
		"setup.snapshot_s":    stage(func(s setupTimes) float64 { return s.Snapshot }),
	}
	wit, upd := r.pick("plain", "witnesses"), r.pick("plain", "update")
	aux := map[string]float64{
		"witness_p50_ms":      sliced(wit, minSlice, latencyQuantile(0.5)),
		"update_tuples_per_s": sliced(upd, minSlice, rate(true)),
		"update_p50_ms":       sliced(upd, minSlice, latencyQuantile(0.5)),
		"update_p95_ms":       sliced(upd, 200, latencyQuantile(0.95)),
	}
	var rp replayResult
	if tw != nil {
		rp, err = replayTable1(base, ordIdx, tw)
	} else {
		rp, err = replayCust(base, ordIdx, cw, regTexts)
	}
	if err != nil {
		return err
	}
	vals := layerValues(layerInputs{
		traces: r.traces, before: before, after: after,
		setup: setup, replay: rp, plain: plain, tracedE: phaseE2E(r, "traced"), plainAux: aux,
	})
	for _, m := range layerMetrics {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rec.Metrics[m.Name] = metric{v, m.Unit}
	}
	return nil
}

func phaseE2E(r *runner, phase string) e2e {
	ss := r.pick(phase, "check")
	return e2e{
		CheckPerS: sliced(ss, minSlice, rate(false)),
		CheckP50:  sliced(ss, minSlice, latencyQuantile(0.5)),
		CheckP95:  sliced(ss, 200, latencyQuantile(0.95)),
	}
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// checkFinal compares the served table sizes with the copy's, and the
// update counters with the batches sent.
func (w *custWorkload) checkFinal(cl *httpClient) error {
	k, err := cl.readCounters()
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if want := float64(w.sent * w.batchSize); k.UpdateTuples != want {
		return fmt.Errorf("server applied %v update tuples, the benchmark sent %v", k.UpdateTuples, want)
	}
	if got, want := k.Tables["CUST"], len(w.oracle.rows); got != want {
		return fmt.Errorf("/statsz reports %d CUST rows, the copy holds %d", got, want)
	}
	if got, want := k.Tables["CONS"], w.in.cat.Table("CONS").Len(); got != want {
		return fmt.Errorf("/statsz reports %d CONS rows, the copy holds %d", got, want)
	}
	return nil
}

// sourceIdentity names the code measured: the git commit when the
// checkout is a repository, and a hash of every Go source and module file
// under the working directory.
func sourceIdentity() (commit, hash string) {
	commit = "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return commit, hex.EncodeToString(h.Sum(nil))
}
