package service

// http.go is the JSON wire surface of the daemon: POST /check, POST
// /witnesses, POST /update for tuple batches, GET /healthz, GET /statsz
// with live checker/kernel/queue counters, and GET /metricsz in Prometheus
// text exposition. Handlers run on the HTTP server's goroutines; they only
// decode, submit to the admission queues and encode — all kernel work
// happens in the worker. Bodies are capped by Options.MaxBodyBytes (413
// beyond it), decoding is strict (unknown fields and trailing data are 400s
// naming the offence), and `?trace=1` on the POST endpoints returns the
// request's per-stage spans.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// CheckRequest asks for constraint validation. With neither Constraints nor
// Text, every registered constraint is checked.
type CheckRequest struct {
	// Constraints names registered constraints to check.
	Constraints []string `json:"constraints,omitempty"`
	// Text holds ad-hoc constraint declarations in the rules language.
	Text string `json:"text,omitempty"`
	// TimeoutMS overrides the server's default request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NodeBudget caps the BDD node budget for this request; blowing it
	// degrades the check to the SQL fallback.
	NodeBudget int `json:"node_budget,omitempty"`
}

// CheckResult reports one constraint's validation.
type CheckResult struct {
	Name           string `json:"name"`
	Violated       bool   `json:"violated"`
	Method         string `json:"method,omitempty"`
	FellBack       bool   `json:"fell_back,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	DurationNS     int64  `json:"duration_ns"`
	Error          string `json:"error,omitempty"`
}

// CheckResponse is the /check reply.
type CheckResponse struct {
	Results []CheckResult `json:"results"`
	// Epoch is the epoch the results were evaluated at: the requested
	// ?epoch=N for a historical read, the current epoch otherwise. Zero when
	// the server runs without a durability store.
	Epoch uint64 `json:"epoch,omitempty"`
	// Trace carries the request's per-stage spans when ?trace=1.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// TraceInfo is the wire form of a request trace: total handler time plus
// the recorded stage spans.
type TraceInfo struct {
	TotalNS int64       `json:"total_ns"`
	Spans   []TraceSpan `json:"spans"`
}

// TraceSpan is one traced stage. StartNS is the stage's offset from the
// start of the request.
type TraceSpan struct {
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	DurationNS int64  `json:"duration_ns"`
	// Kernel is the BDD-kernel counter movement the stage caused; absent for
	// stages that touched no kernel.
	Kernel *KernelDelta `json:"kernel,omitempty"`
}

// KernelDelta is the wire form of a stage's kernel counter movement.
type KernelDelta struct {
	NodesAllocated uint64 `json:"nodes_allocated,omitempty"`
	GCRuns         int    `json:"gc_runs,omitempty"`
	CacheHits      uint64 `json:"cache_hits,omitempty"`
	Ops            uint64 `json:"ops,omitempty"`
}

// WitnessRequest asks for violating bindings of one constraint.
type WitnessRequest struct {
	// Constraint names a registered constraint; alternatively Text holds
	// one ad-hoc declaration.
	Constraint string `json:"constraint,omitempty"`
	Text       string `json:"text,omitempty"`
	// Limit bounds the number of witnesses; 10 when zero.
	Limit      int `json:"limit,omitempty"`
	TimeoutMS  int `json:"timeout_ms,omitempty"`
	NodeBudget int `json:"node_budget,omitempty"`
}

// Witness is one violating binding.
type Witness struct {
	Vars   []string `json:"vars"`
	Values []string `json:"values"`
}

// WitnessResponse is the /witnesses reply.
type WitnessResponse struct {
	Constraint string    `json:"constraint"`
	Method     string    `json:"method"`
	Witnesses  []Witness `json:"witnesses"`
	// Trace carries the request's per-stage spans when ?trace=1.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// UpdateTuple is one tuple-level mutation.
type UpdateTuple struct {
	Table  string   `json:"table"`
	Op     string   `json:"op"` // "insert" or "delete"
	Values []string `json:"values"`
}

// UpdateRequest is a batch of mutations, applied in order through the
// incremental index maintenance path.
type UpdateRequest struct {
	Updates   []UpdateTuple `json:"updates"`
	TimeoutMS int           `json:"timeout_ms,omitempty"`
}

// UpdateResponse is the /update reply. On error, Applied says how many
// leading updates of the batch took effect.
type UpdateResponse struct {
	Applied int    `json:"applied"`
	Error   string `json:"error,omitempty"`
	// Trace carries the request's per-stage spans when ?trace=1.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// StatszResponse reports live server, checker and kernel counters. Checker
// and Kernel aggregate across the primary and every replica (node counts,
// cache hits and op counts sum; Vars and Budget are the primary's, as all
// kernels share the same layout and budget); PrimaryKernel isolates the
// write path's kernel and Replication breaks the read pool down per worker.
type StatszResponse struct {
	UptimeMS      int64            `json:"uptime_ms"`
	Queue         QueueStats       `json:"queue"`
	Requests      RequestStats     `json:"requests"`
	Checker       CheckerStats     `json:"checker"`
	Kernel        KernelStats      `json:"kernel"`
	PrimaryKernel KernelStats      `json:"primary_kernel"`
	Replication   ReplicationStats `json:"replication"`
	Indices       []IndexStats     `json:"indices"`
	Tables        []TableStats     `json:"tables"`
	Constraints   []string         `json:"constraints"`
	// Epoch is the last durably acknowledged update round; it survives
	// restarts when a data directory is configured. Zero without one.
	Epoch uint64 `json:"epoch,omitempty"`
	// Durability reports the data directory's state; absent without one.
	Durability *store.Status `json:"durability,omitempty"`
	// Follower reports replication progress; absent on a leader.
	Follower *FollowerStats `json:"follower,omitempty"`
}

// ReplicationStats reports the replicated read path: pool size, current
// epoch, handoffs completed, and how requests were routed.
type ReplicationStats struct {
	// Replicas is the pool size; zero when replication is disabled.
	Replicas int `json:"replicas"`
	// Epoch is the latest published index version.
	Epoch uint64 `json:"epoch"`
	// Swaps counts completed version handoffs across all workers, whether by
	// delta catch-up or by adoption.
	Swaps uint64 `json:"swaps"`
	// Adoptions counts handoffs that materialized a worker's checker from a
	// full frozen base (first use, after a reset, after a failed catch-up);
	// CatchupTuples counts the update tuples workers applied to reach newer
	// versions.
	Adoptions     uint64 `json:"adoptions"`
	CatchupTuples uint64 `json:"catchup_tuples"`
	// ReplicaChecks and ReplicaWitnesses count requests served by the pool;
	// Reroutes counts constraints bounced to the primary for SQL fallback.
	ReplicaChecks    uint64 `json:"replica_checks"`
	ReplicaWitnesses uint64 `json:"replica_witnesses"`
	Reroutes         uint64 `json:"reroutes"`
	// Workers reports each replica's private counters.
	Workers []ReplicaWorkerStats `json:"workers,omitempty"`
}

// ReplicaWorkerStats is one replica worker's view for /statsz.
type ReplicaWorkerStats struct {
	Worker int         `json:"worker"`
	Epoch  uint64      `json:"epoch"`
	Jobs   uint64      `json:"jobs"`
	Kernel KernelStats `json:"kernel"`
}

// QueueStats reports admission-queue depths against their capacity.
type QueueStats struct {
	ChecksDepth  int `json:"checks_depth"`
	ChecksCap    int `json:"checks_cap"`
	UpdatesDepth int `json:"updates_depth"`
	UpdatesCap   int `json:"updates_cap"`
}

// RequestStats reports request counters since startup.
type RequestStats struct {
	Checks          uint64 `json:"checks"`
	Witnesses       uint64 `json:"witnesses"`
	UpdateJobs      uint64 `json:"update_jobs"`
	UpdateTuples    uint64 `json:"update_tuples"`
	UpdateBatches   uint64 `json:"update_batches"`
	DeadlineRejects uint64 `json:"deadline_rejects"`
	QueueRejects    uint64 `json:"queue_rejects"`
}

// CheckerStats reports how constraints were decided since startup.
type CheckerStats struct {
	BDDChecks    int     `json:"bdd_checks"`
	FDFastPath   int     `json:"fd_fast_path"`
	SQLFallbacks int     `json:"sql_fallbacks"`
	Errors       int     `json:"errors"`
	FallbackRate float64 `json:"fallback_rate"`
}

// KernelStats reports the shared BDD kernel's counters.
type KernelStats struct {
	LiveNodes    int    `json:"live_nodes"`
	PeakNodes    int    `json:"peak_nodes"`
	Capacity     int    `json:"capacity"`
	Vars         int    `json:"vars"`
	Budget       int    `json:"budget"`
	GCRuns       int    `json:"gc_runs"`
	Ops          uint64 `json:"ops"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheEntries int    `json:"cache_entries"`
	// NodesAllocated is monotonic (GC never lowers it), so deltas between
	// two scrapes measure the work in between — the same figure traced
	// requests report per stage.
	NodesAllocated uint64 `json:"nodes_allocated"`
}

// HealthResponse is the /healthz reply.
type HealthResponse struct {
	Status   string `json:"status"`
	UptimeMS int64  `json:"uptime_ms"`
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /check", s.handleCheck)
	mux.HandleFunc("POST /witnesses", s.handleWitnesses)
	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	if s.st != nil {
		// Replication endpoints: any server with a durability store can feed
		// a follower (followers included, so replicas can chain).
		mux.HandleFunc("GET /snapshot/{epoch}", s.handleSnapshotFetch)
		mux.HandleFunc("GET /wal", s.handleWALTail)
	}
	return mux
}

// traceFor arms a trace for the request: always when the client asked with
// ?trace=1 (the spans go back in the response), and silently when the
// slow-request log is on (the spans feed the log line if the request
// crosses the threshold). wantTrace reports the explicit ask.
func (s *Server) traceFor(r *http.Request) (tr *obs.Trace, wantTrace bool) {
	switch r.URL.Query().Get("trace") {
	case "1", "true":
		wantTrace = true
	}
	if wantTrace || s.opts.SlowRequest > 0 {
		tr = obs.NewTrace()
	}
	return tr, wantTrace
}

// finishRequest observes the endpoint's latency histogram and emits the
// slow-request log line when the total crosses the threshold.
func (s *Server) finishRequest(endpoint string, start time.Time, tr *obs.Trace) {
	d := time.Since(start)
	if h := s.metrics.endpointHist(endpoint); h != nil {
		h.Observe(d)
	}
	if s.opts.SlowRequest > 0 && d >= s.opts.SlowRequest {
		s.metrics.slowRequests.Inc()
		s.opts.SlowLog.Printf("slow request: endpoint=%s total=%v %s",
			endpoint, d.Round(time.Microsecond), tr.Summary())
	}
}

// toWireTrace converts the recorded spans for the response; nil unless the
// client explicitly asked for the trace.
func toWireTrace(tr *obs.Trace, wantTrace bool) *TraceInfo {
	if tr == nil || !wantTrace {
		return nil
	}
	spans := tr.Spans()
	out := &TraceInfo{TotalNS: tr.Total().Nanoseconds(), Spans: make([]TraceSpan, len(spans))}
	for i, sp := range spans {
		ws := TraceSpan{Name: sp.Name, StartNS: sp.Start.Nanoseconds(), DurationNS: sp.Duration.Nanoseconds()}
		if sp.Kernel != nil {
			ws.Kernel = &KernelDelta{
				NodesAllocated: sp.Kernel.NodesAllocated,
				GCRuns:         sp.Kernel.GCRuns,
				CacheHits:      sp.Kernel.CacheHits,
				Ops:            sp.Kernel.Ops,
			}
		}
		out.Spans[i] = ws
	}
	return out
}

// requestContext derives the job context: the client's context bounded by
// the requested (or default) timeout.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

//cv:owner any
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	s.nChecks.Add(1)
	start := time.Now()
	tr, wantTrace := s.traceFor(r)
	defer s.finishRequest("check", start, tr)
	var req CheckRequest
	if !s.decode(w, r, &req) {
		return
	}
	cts, err := s.resolve(req.Constraints, req.Text)
	if err != nil {
		s.httpError(w, err)
		return
	}
	epoch, live, err := s.epochParam(r)
	if err != nil {
		s.httpError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	var results []core.Result
	if live {
		if serr := s.stalenessErr(); serr != nil {
			s.httpError(w, serr)
			return
		}
		rep, serr := s.submitCheck(ctx, cts, req.NodeBudget, 0, tr)
		if serr != nil {
			s.httpError(w, serr)
			return
		}
		results = rep.results
	} else {
		histStart := tr.Begin()
		results, err = s.checkAtEpoch(ctx, epoch, cts, req.NodeBudget)
		tr.Span("epoch_check", histStart)
		if err != nil {
			s.httpError(w, err)
			return
		}
	}
	resp := CheckResponse{Results: make([]CheckResult, len(results)), Epoch: epoch}
	for i, res := range results {
		resp.Results[i] = toWireResult(res)
	}
	resp.Trace = toWireTrace(tr, wantTrace)
	s.writeJSON(w, http.StatusOK, resp)
}

// epochParam interprets ?epoch=N. Absent, zero, or equal to the current
// epoch selects the live read path; a smaller value selects the historical
// path; a larger one is rejected (ErrFutureEpoch). The reported epoch is
// zero when the server runs without a durability store.
func (s *Server) epochParam(r *http.Request) (epoch uint64, live bool, err error) {
	raw := r.URL.Query().Get("epoch")
	cur := uint64(0)
	if s.st != nil {
		cur = s.epoch.Load()
	}
	if raw == "" {
		return cur, true, nil
	}
	n, perr := parseUintParam("epoch", raw)
	if perr != nil {
		return 0, false, perr
	}
	if n == 0 || n == cur {
		return cur, true, nil
	}
	if s.st == nil {
		return 0, false, ErrNoHistory
	}
	if n > cur {
		return 0, false, fmt.Errorf("%w: requested %d, current is %d", ErrFutureEpoch, n, cur)
	}
	return n, false, nil
}

func toWireResult(res core.Result) CheckResult {
	out := CheckResult{
		Name:       res.Constraint.Name,
		Violated:   res.Violated,
		Method:     string(res.Method),
		FellBack:   res.FellBack,
		DurationNS: res.Duration.Nanoseconds(),
	}
	if res.FallbackReason != nil {
		out.FallbackReason = res.FallbackReason.Error()
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
		out.Method = ""
	}
	return out
}

//cv:owner any
func (s *Server) handleWitnesses(w http.ResponseWriter, r *http.Request) {
	s.nWitnesses.Add(1)
	start := time.Now()
	tr, wantTrace := s.traceFor(r)
	defer s.finishRequest("witnesses", start, tr)
	var req WitnessRequest
	if !s.decode(w, r, &req) {
		return
	}
	var names []string
	if req.Constraint != "" {
		names = []string{req.Constraint}
	}
	if req.Constraint == "" && req.Text == "" {
		s.httpError(w, errBadRequest("one of \"constraint\" or \"text\" is required"))
		return
	}
	cts, err := s.resolve(names, req.Text)
	if err != nil {
		s.httpError(w, err)
		return
	}
	if len(cts) != 1 {
		s.httpError(w, errBadRequest("witness extraction takes exactly one constraint"))
		return
	}
	limit := req.Limit
	if limit <= 0 {
		limit = 10
	}
	if serr := s.stalenessErr(); serr != nil {
		s.httpError(w, serr)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	rep, err := s.submitCheck(ctx, cts, req.NodeBudget, limit, tr)
	if err != nil {
		s.httpError(w, err)
		return
	}
	resp := WitnessResponse{
		Constraint: cts[0].Name,
		Method:     string(rep.witnessMethod),
		Witnesses:  make([]Witness, len(rep.witnesses)),
	}
	for i, ws := range rep.witnesses {
		resp.Witnesses[i] = Witness{Vars: ws.Vars, Values: ws.Values}
	}
	resp.Trace = toWireTrace(tr, wantTrace)
	s.writeJSON(w, http.StatusOK, resp)
}

//cv:owner any
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	s.nUpdateJobs.Add(1)
	start := time.Now()
	tr, wantTrace := s.traceFor(r)
	defer s.finishRequest("update", start, tr)
	if s.follow != nil {
		// A follower's state is defined by the leader's log; accepting a
		// local write would fork it. 421 names the right destination.
		w.Header().Set(HeaderLeader, s.follow.URL)
		s.writeJSON(w, http.StatusMisdirectedRequest, map[string]string{
			"error":  "read-only follower: send updates to the leader",
			"leader": s.follow.URL,
		})
		return
	}
	var req UpdateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Updates) == 0 {
		s.httpError(w, errBadRequest("empty update batch"))
		return
	}
	ups := make([]core.Update, len(req.Updates))
	for i, u := range req.Updates {
		ups[i] = core.Update{Table: u.Table, Op: core.UpdateOp(u.Op), Values: u.Values}
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	applied, err := s.submitUpdate(ctx, ups, tr)
	if err != nil {
		status := statusFor(err)
		s.writeJSON(w, status, UpdateResponse{Applied: applied, Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, UpdateResponse{Applied: applied, Trace: toWireTrace(tr, wantTrace)})
}

//cv:owner any
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		UptimeMS: time.Since(s.started).Milliseconds(),
	})
}

// handleMetricsz serves the Prometheus text exposition: the request/stage
// histograms plus gauge callbacks over the worker-published snapshot and the
// replica pool's per-worker stats. No live kernel is touched.
//
//cv:owner any
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	s.metrics.observeResponse(http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}

//cv:owner any
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	cs := snap.checker
	primary := KernelStats{
		LiveNodes:      snap.kernel.Live,
		PeakNodes:      snap.kernel.Peak,
		Capacity:       snap.kernel.Capacity,
		Vars:           snap.kernel.Vars,
		Budget:         snap.kernel.Budget,
		GCRuns:         snap.kernel.GCRuns,
		Ops:            snap.kernel.Ops,
		CacheHits:      snap.kernel.CacheHits,
		CacheEntries:   snap.kernel.CacheEntries,
		NodesAllocated: snap.kernel.Allocs,
	}
	agg := primary
	repl := ReplicationStats{
		ReplicaChecks:    s.nReplicaChecks.Load(),
		ReplicaWitnesses: s.nReplicaWitness.Load(),
		Reroutes:         s.nReroutes.Load(),
	}
	if s.pool != nil {
		repl.Replicas = s.pool.Size()
		repl.Epoch = s.pool.Epoch()
		repl.Swaps = s.pool.Swaps()
		repl.Adoptions = s.pool.Adoptions()
		repl.CatchupTuples = s.pool.CatchupTuples()
		for _, ws := range s.pool.Stats() {
			wk := KernelStats{
				LiveNodes:      ws.Kernel.Live,
				PeakNodes:      ws.Kernel.Peak,
				Capacity:       ws.Kernel.Capacity,
				Vars:           ws.Kernel.Vars,
				Budget:         ws.Kernel.Budget,
				GCRuns:         ws.Kernel.GCRuns,
				Ops:            ws.Kernel.Ops,
				CacheHits:      ws.Kernel.CacheHits,
				CacheEntries:   ws.Kernel.CacheEntries,
				NodesAllocated: ws.Kernel.Allocs,
			}
			repl.Workers = append(repl.Workers, ReplicaWorkerStats{
				Worker: ws.Worker, Epoch: ws.Epoch, Jobs: ws.Jobs, Kernel: wk,
			})
			agg.LiveNodes += wk.LiveNodes
			agg.PeakNodes += wk.PeakNodes
			agg.Capacity += wk.Capacity
			agg.GCRuns += wk.GCRuns
			agg.Ops += wk.Ops
			agg.CacheHits += wk.CacheHits
			agg.CacheEntries += wk.CacheEntries
			agg.NodesAllocated += wk.NodesAllocated
			cs.BDDChecks += ws.Checker.BDDChecks
			cs.FDFastPath += ws.Checker.FDFastPath
			cs.SQLFallbacks += ws.Checker.SQLFallbacks
			cs.Errors += ws.Checker.Errors
		}
	}
	decided := cs.BDDChecks + cs.FDFastPath + cs.SQLFallbacks
	rate := 0.0
	if decided > 0 {
		rate = float64(cs.SQLFallbacks) / float64(decided)
	}
	resp := StatszResponse{
		UptimeMS: time.Since(s.started).Milliseconds(),
		Queue: QueueStats{
			ChecksDepth:  len(s.checks),
			ChecksCap:    cap(s.checks),
			UpdatesDepth: len(s.updates),
			UpdatesCap:   cap(s.updates),
		},
		Requests: RequestStats{
			Checks:          s.nChecks.Load(),
			Witnesses:       s.nWitnesses.Load(),
			UpdateJobs:      s.nUpdateJobs.Load(),
			UpdateTuples:    s.nUpdateTuples.Load(),
			UpdateBatches:   s.nBatches.Load(),
			DeadlineRejects: s.nDeadlineRejects.Load(),
			QueueRejects:    s.nQueueRejects.Load(),
		},
		Checker: CheckerStats{
			BDDChecks:    cs.BDDChecks,
			FDFastPath:   cs.FDFastPath,
			SQLFallbacks: cs.SQLFallbacks,
			Errors:       cs.Errors,
			FallbackRate: rate,
		},
		Kernel:        agg,
		PrimaryKernel: primary,
		Replication:   repl,
		Indices:       snap.indices,
		Tables:        snap.tables,
		Constraints:   s.Constraints(),
	}
	if s.st != nil {
		resp.Epoch = s.epoch.Load()
		st := s.st.Status()
		resp.Durability = &st
	}
	resp.Follower = s.followerStats()
	s.writeJSON(w, http.StatusOK, resp)
}

// plumbing

// decode reads one strict JSON document from the request body: the body is
// capped at Options.MaxBodyBytes (413 past it), unknown fields are rejected
// naming the field, and trailing data after the document is a 400 — a
// concatenated second document would otherwise be silently dropped, masking
// client framing bugs.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	body := r.Body
	if s.opts.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.httpError(w, decodeError(err))
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		s.httpError(w, errBadRequest("trailing data after JSON body"))
		return false
	}
	return true
}

// decodeError shapes a JSON decoding failure for the client: body-cap hits
// keep their *http.MaxBytesError identity (mapped to 413 by statusFor) and
// the stdlib's "json: " prefix is stripped so the envelope reads
// `unknown field "frobnicate"` rather than leaking package names.
func decodeError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return err
	}
	return errBadRequest("bad request body: " + strings.TrimPrefix(err.Error(), "json: "))
}

type badRequestError string

func errBadRequest(msg string) error    { return badRequestError(msg) }
func (e badRequestError) Error() string { return string(e) }

// parseUintParam parses an unsigned decimal query/path parameter strictly:
// only ASCII digits are accepted, so signs ("+1", "-1"), trailing garbage
// ("12x", "1 "), hex, and empty strings all fail with one uniform 400
// message instead of whatever strconv would phrase (or, worse, accept).
// Overflow gets its own message so a follower paging epochs can tell a typo
// from a too-large value.
func parseUintParam(name, raw string) (uint64, error) {
	if raw == "" {
		return 0, errBadRequest(fmt.Sprintf("bad %s parameter %q: want an unsigned decimal integer", name, raw))
	}
	for i := 0; i < len(raw); i++ {
		if raw[i] < '0' || raw[i] > '9' {
			return 0, errBadRequest(fmt.Sprintf("bad %s parameter %q: want an unsigned decimal integer", name, raw))
		}
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, errBadRequest(fmt.Sprintf("bad %s parameter %q: out of range", name, raw))
	}
	return n, nil
}

func statusFor(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBusy), errors.Is(err, ErrShuttingDown), errors.Is(err, ErrStale):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, store.ErrEpochNotRetained), errors.Is(err, store.ErrNoSnapshot):
		// The epoch existed but its snapshot has been pruned: gone, not absent.
		return http.StatusGone
	case errors.Is(err, ErrFutureEpoch):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) httpError(w http.ResponseWriter, err error) {
	s.writeJSON(w, statusFor(err), map[string]string{"error": err.Error()})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.metrics.observeResponse(status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
