package service

// metrics.go builds the server's /metricsz surface: one obs.Registry wired
// to the counters the server already keeps (request atomics, the worker's
// published snapshot, the replica pool's per-worker stats) plus the latency
// histograms observed on the request path. Construction happens once in New;
// every gauge callback reads only atomically-published state (s.snap,
// pool.Stats()), never a live kernel, so scrapes are safe from any
// goroutine.

import (
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// serverMetrics owns the histograms and counters observed on the hot path.
// Gauges and counters that mirror existing server state are registered as
// callbacks and have no field here.
type serverMetrics struct {
	reg *obs.Registry

	// End-to-end request latency by endpoint, observed in the HTTP layer.
	reqCheck, reqWitnesses, reqUpdate *obs.Histogram

	// Per-stage latency, observed by the worker (and the replica dispatch
	// path for queue_wait/eval).
	stQueueWait *obs.Histogram
	stEval      *obs.Histogram
	stSQL       *obs.Histogram
	stWitness   *obs.Histogram
	stApply     *obs.Histogram
	stFreeze    *obs.Histogram

	// Dynamic-reordering pause time, observed by the worker around each
	// sifting run.
	stReorder *obs.Histogram

	// Replica-pool job latency, observed inside internal/replica.
	replicaQueueWait, replicaRun *obs.Histogram

	slowRequests *obs.Counter
	// HTTP responses by status class; index status/100 (2, 4, 5). Other
	// classes are unregistered and dropped.
	resp [6]*obs.Counter
}

// observeResponse counts one HTTP response by status class.
func (m *serverMetrics) observeResponse(status int) {
	if c := m.resp[status/100%6]; c != nil {
		c.Inc()
	}
}

// endpointHist returns the request-duration histogram for an endpoint name,
// or nil for endpoints without one (healthz, statsz, metricsz).
func (m *serverMetrics) endpointHist(endpoint string) *obs.Histogram {
	switch endpoint {
	case "check":
		return m.reqCheck
	case "witnesses":
		return m.reqWitnesses
	case "update":
		return m.reqUpdate
	}
	return nil
}

func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{reg: r}

	r.GaugeFunc("cv_uptime_seconds", "", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })

	const reqHelp = "Requests accepted, by endpoint."
	r.CounterFunc("cv_requests_total", `endpoint="check"`, reqHelp, s.nChecks.Load)
	r.CounterFunc("cv_requests_total", `endpoint="witnesses"`, reqHelp, s.nWitnesses.Load)
	r.CounterFunc("cv_requests_total", `endpoint="update"`, reqHelp, s.nUpdateJobs.Load)

	const rejHelp = "Requests rejected before running, by reason."
	r.CounterFunc("cv_request_rejects_total", `reason="deadline"`, rejHelp, s.nDeadlineRejects.Load)
	r.CounterFunc("cv_request_rejects_total", `reason="queue"`, rejHelp, s.nQueueRejects.Load)

	r.CounterFunc("cv_update_tuples_total", "", "Tuples applied through the incremental maintenance path.", s.nUpdateTuples.Load)
	r.CounterFunc("cv_update_batches_total", "", "Coalesced update batches applied by the worker.", s.nBatches.Load)

	const durHelp = "End-to-end request latency in seconds, by endpoint."
	m.reqCheck = r.Histogram("cv_request_duration_seconds", `endpoint="check"`, durHelp)
	m.reqWitnesses = r.Histogram("cv_request_duration_seconds", `endpoint="witnesses"`, durHelp)
	m.reqUpdate = r.Histogram("cv_request_duration_seconds", `endpoint="update"`, durHelp)

	const stageHelp = "Per-stage request latency in seconds."
	m.stQueueWait = r.Histogram("cv_stage_duration_seconds", `stage="queue_wait"`, stageHelp)
	m.stEval = r.Histogram("cv_stage_duration_seconds", `stage="eval"`, stageHelp)
	m.stSQL = r.Histogram("cv_stage_duration_seconds", `stage="sql"`, stageHelp)
	m.stWitness = r.Histogram("cv_stage_duration_seconds", `stage="witness_enum"`, stageHelp)
	m.stApply = r.Histogram("cv_stage_duration_seconds", `stage="apply"`, stageHelp)
	m.stFreeze = r.Histogram("cv_stage_duration_seconds", `stage="freeze"`, stageHelp)

	m.slowRequests = r.Counter("cv_slow_requests_total", "", "Requests at or above the slow-request threshold.")

	// Dynamic-reordering metrics. Count and nodes-saved mirror the primary
	// kernel's counters through the worker-published snapshot; the duration
	// histogram is the sift pause observed by the worker.
	kernelCounter := func(pick func(kernelView) uint64) func() uint64 {
		return func() uint64 {
			if snap := s.snap.Load(); snap != nil {
				return pick(snap.kernel)
			}
			return 0
		}
	}
	r.CounterFunc("cv_reorder_count", "", "Completed dynamic variable-reordering (sifting) runs.",
		kernelCounter(func(kv kernelView) uint64 { return uint64(kv.Reorders) }))
	r.CounterFunc("cv_reorder_nodes_saved", "", "Cumulative live-node reduction achieved by reordering runs.",
		kernelCounter(func(kv kernelView) uint64 { return kv.ReorderSaved }))
	m.stReorder = r.Histogram("cv_reorder_duration_seconds", "", "Write-path pause taken by one reordering run, in seconds.")

	const respHelp = "HTTP responses sent, by status class."
	m.resp[2] = r.Counter("cv_http_responses_total", `class="2xx"`, respHelp)
	m.resp[4] = r.Counter("cv_http_responses_total", `class="4xx"`, respHelp)
	m.resp[5] = r.Counter("cv_http_responses_total", `class="5xx"`, respHelp)

	// Checker decision counters, read from the worker-published snapshot.
	const decHelp = "Constraint validations decided, by method."
	decision := func(pick func(*snapshot) int) func() uint64 {
		return func() uint64 {
			if snap := s.snap.Load(); snap != nil {
				return uint64(pick(snap))
			}
			return 0
		}
	}
	r.CounterFunc("cv_checker_decisions_total", `method="bdd"`, decHelp,
		decision(func(sn *snapshot) int { return sn.checker.BDDChecks }))
	r.CounterFunc("cv_checker_decisions_total", `method="fd"`, decHelp,
		decision(func(sn *snapshot) int { return sn.checker.FDFastPath }))
	r.CounterFunc("cv_checker_decisions_total", `method="sql"`, decHelp,
		decision(func(sn *snapshot) int { return sn.checker.SQLFallbacks }))
	r.CounterFunc("cv_checker_errors_total", "", "Constraint validations that failed outright.",
		decision(func(sn *snapshot) int { return sn.checker.Errors }))

	// Primary-kernel counters, from the same snapshot. Scrapes must never
	// touch the live kernel: it belongs to the worker goroutine.
	registerKernel(r, `kernel="primary"`, func() (kernelView, bool) {
		if snap := s.snap.Load(); snap != nil {
			return snap.kernel, true
		}
		return kernelView{}, false
	})

	const qHelp = "Admission queue depth (jobs waiting)."
	const qcHelp = "Admission queue capacity."
	r.GaugeFunc("cv_queue_depth", `queue="checks"`, qHelp, func() float64 { return float64(len(s.checks)) })
	r.GaugeFunc("cv_queue_depth", `queue="updates"`, qHelp, func() float64 { return float64(len(s.updates)) })
	r.GaugeFunc("cv_queue_capacity", `queue="checks"`, qcHelp, func() float64 { return float64(cap(s.checks)) })
	r.GaugeFunc("cv_queue_capacity", `queue="updates"`, qcHelp, func() float64 { return float64(cap(s.updates)) })

	if s.pool != nil {
		pool := s.pool
		r.GaugeFunc("cv_replica_pool_size", "", "Replica read-pool workers.",
			func() float64 { return float64(pool.Size()) })
		r.GaugeFunc("cv_replica_epoch", "", "Latest published index version epoch.",
			func() float64 { return float64(pool.Epoch()) })
		r.CounterFunc("cv_replica_swaps_total", "", "Version handoffs completed by replica workers.", pool.Swaps)
		r.CounterFunc("cv_replica_adoptions_total", "", "Replica checkers materialized from a full frozen base.", pool.Adoptions)
		r.CounterFunc("cv_replica_catchup_tuples_total", "", "Update tuples replica workers applied to catch up to newer versions.", pool.CatchupTuples)
		r.CounterFunc("cv_replica_checks_total", "", "Check requests served on the replica pool.", s.nReplicaChecks.Load)
		r.CounterFunc("cv_replica_witnesses_total", "", "Witness requests served on the replica pool.", s.nReplicaWitness.Load)
		r.CounterFunc("cv_replica_reroutes_total", "", "Constraints rerouted from a replica to the primary for SQL fallback.", s.nReroutes.Load)
		m.replicaQueueWait = r.Histogram("cv_replica_queue_wait_seconds", "", "Replica job submission-to-pickup latency in seconds.")
		m.replicaRun = r.Histogram("cv_replica_run_seconds", "", "Replica job execution time in seconds.")

		// Per-replica kernel counters, from the workers' atomically-published
		// stats. pool.Stats() copies every worker's snapshot; with a handful
		// of workers per pool the per-scrape cost is negligible.
		for i := 0; i < pool.Size(); i++ {
			i := i
			registerKernel(r, `kernel="replica-`+strconv.Itoa(i)+`"`, func() (kernelView, bool) {
				return kernelViewOf(pool.Stats()[i].Kernel), true
			})
		}
	}

	if s.st != nil {
		st := s.st
		st.SetMetrics(&store.Metrics{
			WALAppend:     r.Histogram("cv_wal_append_seconds", "", "WAL batch append (and fsync, per policy) latency in seconds."),
			SnapshotWrite: r.Histogram("cv_snapshot_write_seconds", "", "Epoch snapshot write latency in seconds."),
		})
		r.CounterFunc("cv_wal_appends_total", "", "Update batches appended to the WAL.", st.WALAppends)
		r.CounterFunc("cv_wal_bytes_total", "", "Bytes appended to the WAL.", st.WALBytesWritten)
		r.CounterFunc("cv_wal_fsyncs_total", "", "WAL fsync calls issued.", st.Fsyncs)
		r.CounterFunc("cv_wal_errors_total", "", "WAL appends that failed; the affected batches were not acknowledged.", s.nWALErrors.Load)
		r.CounterFunc("cv_snapshot_errors_total", "", "Snapshot writes that failed (the WAL still covers the epochs).", s.nSnapshotErrors.Load)
		r.CounterFunc("cv_recovery_replayed_records_total", "", "WAL records replayed during recovery at boot.", st.ReplayedRecords)
		r.CounterFunc("cv_recovery_replayed_tuples_total", "", "Tuples replayed from the WAL during recovery at boot.", st.ReplayedTuples)
		r.CounterFunc("cv_recovery_torn_tails_total", "", "Torn WAL tails detected and dropped during recovery.", st.TornTails)
		r.CounterFunc("cv_recovery_dropped_bytes_total", "", "Bytes dropped from torn WAL tails during recovery.", st.DroppedTailBytes)
		r.CounterFunc("cv_epoch_checks_total", "", "Point-in-time checks served at historical epochs.", s.nEpochChecks.Load)
		r.GaugeFunc("cv_wal_size_bytes", "", "Current WAL file size in bytes.",
			func() float64 { return float64(st.WALSize()) })
		r.GaugeFunc("cv_snapshot_last_epoch", "", "Epoch of the newest durable snapshot.",
			func() float64 { return float64(st.LastSnapshotEpoch()) })
		r.GaugeFunc("cv_epoch", "", "Last durably acknowledged update epoch.",
			func() float64 { return float64(s.epoch.Load()) })

		// Leader-side replication traffic: any server with a store can feed
		// followers.
		const serveHelp = "Replication artifacts served to followers, by endpoint."
		r.CounterFunc("cv_replication_serves_total", `endpoint="snapshot"`, serveHelp, s.nSnapshotServes.Load)
		r.CounterFunc("cv_replication_serves_total", `endpoint="wal"`, serveHelp, s.nWALServes.Load)
	}

	if s.follow != nil {
		r.GaugeFunc("cv_follower_lag_epochs", "", "Epochs the follower is behind the leader's last reported epoch.",
			func() float64 { return float64(s.followerLag()) })
		r.GaugeFunc("cv_follower_leader_epoch", "", "The leader's last reported epoch.",
			func() float64 { return float64(s.leaderEpoch.Load()) })
		r.GaugeFunc("cv_follower_state", "", "Tail-loop phase: 0 starting, 1 tailing, 2 bootstrapping, 3 retrying.",
			func() float64 { return float64(s.replState.Load()) })
		r.CounterFunc("cv_wal_tail_polls_total", "", "WAL long-polls that reached the leader.", s.nTailPolls.Load)
		r.CounterFunc("cv_wal_tail_errors_total", "", "WAL long-polls that failed (network, decode, or leader error).", s.nTailErrors.Load)
		r.CounterFunc("cv_wal_tail_records_total", "", "WAL records tailed from the leader and applied.", s.nTailRecords.Load)
		r.CounterFunc("cv_wal_tail_tuples_total", "", "Tuples carried by tailed WAL records.", s.nTailTuples.Load)
		r.CounterFunc("cv_snapshot_fetch_total", "", "Snapshot downloads started against the leader.", s.nSnapFetches.Load)
		r.CounterFunc("cv_snapshot_fetch_failures_total", "", "Snapshot downloads that failed or did not verify.", s.nSnapFetchFailures.Load)
		r.CounterFunc("cv_snapshot_fetch_bytes_total", "", "Snapshot bytes streamed from the leader.", s.nSnapFetchBytes.Load)
		r.CounterFunc("cv_follower_rebootstraps_total", "", "Full re-bootstrap cycles (snapshot refetch after pruning or apply failure).", s.nRebootstraps.Load)
	}

	return m
}

// registerKernel registers one kernel's gauge and counter families under the
// given kernel label. view must be safe to call from any goroutine.
func registerKernel(r *obs.Registry, labels string, view func() (kernelView, bool)) {
	gauge := func(pick func(kernelView) float64) func() float64 {
		return func() float64 {
			if kv, ok := view(); ok {
				return pick(kv)
			}
			return 0
		}
	}
	counter := func(pick func(kernelView) uint64) func() uint64 {
		return func() uint64 {
			if kv, ok := view(); ok {
				return pick(kv)
			}
			return 0
		}
	}
	r.GaugeFunc("cv_kernel_live_nodes", labels, "Live BDD nodes, including terminals.",
		gauge(func(kv kernelView) float64 { return float64(kv.Live) }))
	r.GaugeFunc("cv_kernel_peak_nodes", labels, "Peak live BDD nodes observed.",
		gauge(func(kv kernelView) float64 { return float64(kv.Peak) }))
	r.GaugeFunc("cv_kernel_capacity_nodes", labels, "Allocated node-table slots.",
		gauge(func(kv kernelView) float64 { return float64(kv.Capacity) }))
	r.GaugeFunc("cv_kernel_cache_entries", labels, "Per-operation cache entries.",
		gauge(func(kv kernelView) float64 { return float64(kv.CacheEntries) }))
	r.CounterFunc("cv_kernel_gc_runs_total", labels, "Completed kernel garbage collections.",
		counter(func(kv kernelView) uint64 { return uint64(kv.GCRuns) }))
	r.CounterFunc("cv_kernel_ops_total", labels, "Recursive apply steps executed.",
		counter(func(kv kernelView) uint64 { return kv.Ops }))
	r.CounterFunc("cv_kernel_cache_hits_total", labels, "Operation-cache hits.",
		counter(func(kv kernelView) uint64 { return kv.CacheHits }))
	r.CounterFunc("cv_kernel_nodes_allocated_total", labels, "Nodes allocated since kernel creation (monotonic).",
		counter(func(kv kernelView) uint64 { return kv.Allocs }))
	// The three operation caches are sized independently; a per-op hit rate
	// says which one is earning its memory. Lifetime ratio, 0 until traffic.
	const hitHelp = "Operation-cache hit rate since kernel creation, by operation."
	rate := func(pick func(kernelView) (hits, lookups uint64)) func() float64 {
		return func() float64 {
			if kv, ok := view(); ok {
				if hits, lookups := pick(kv); lookups > 0 {
					return float64(hits) / float64(lookups)
				}
			}
			return 0
		}
	}
	r.GaugeFunc("cv_kernel_cache_hit_rate", labels+`,op="apply"`, hitHelp,
		rate(func(kv kernelView) (uint64, uint64) { return kv.ApplyHits, kv.ApplyLookups }))
	r.GaugeFunc("cv_kernel_cache_hit_rate", labels+`,op="quant"`, hitHelp,
		rate(func(kv kernelView) (uint64, uint64) { return kv.QuantHits, kv.QuantLookups }))
	r.GaugeFunc("cv_kernel_cache_hit_rate", labels+`,op="replace"`, hitHelp,
		rate(func(kv kernelView) (uint64, uint64) { return kv.ReplaceHits, kv.ReplaceLookups }))
}
