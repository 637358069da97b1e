// Package service runs the constraint checker as a long-lived server: one
// core.Checker with pre-built logical indices serves many concurrent
// clients, amortizing the index construction cost the one-shot CLIs pay on
// every invocation (the whole point of the paper's logical indices, §2.3).
//
// Concurrency model: any number of goroutines accept and decode requests,
// but the BDD kernel is not safe for concurrent use, so all constraint
// evaluation and index maintenance is dispatched through bounded admission
// queues to a single worker goroutine that owns the checker. Backpressure is
// the queue bound: when a queue is full, submitters wait until their
// deadline and are rejected. Update jobs are coalesced — every queued batch
// is applied through the incremental index maintenance path before the next
// check runs — so checks always observe a consistent database and an
// acknowledged update is visible to every subsequently submitted check.
//
// Per-request deadlines map onto node budgets (Options.NodesPerSecond): a
// request with little time left gets a small budget, and a check that blows
// it degrades gracefully to the SQL fallback exactly as core.CheckOne does.
//
// Parallel read path: with Options.Replicas ≥ 1 (the default is
// GOMAXPROCS), /check and /witnesses are served by a pool of replicated
// read-only checkers (internal/replica), each owning a private BDD kernel,
// so reads scale across cores. The primary worker keeps exclusive
// ownership of writes: after each update batch it publishes the next index
// version to the pool *before* acknowledging the batch, so an acked update
// is visible to every subsequently submitted check, exactly as in the
// single-worker model. A version carries the batch's applied updates, and
// each replica catches up by applying them to its own checker; a full
// frozen copy is taken only at bootstrap, after a reorder or a failed
// round, and periodically to bound the chain. Checks that need the SQL
// fallback (missing index, blown budget) are rerouted from the replica to
// the primary worker, which sees the live tables.
package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/store"
)

// Service errors, mapped to HTTP statuses by the handlers.
var (
	// ErrShuttingDown is returned for work submitted after Close.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrBusy is returned when a request's deadline expires while it waits
	// for admission-queue space — the backpressure signal.
	ErrBusy = errors.New("service: admission queue full")
	// ErrUnknownConstraint is returned for names missing from the registry.
	ErrUnknownConstraint = errors.New("service: unknown constraint")
)

// Options configures a Server.
type Options struct {
	// QueueDepth bounds each admission queue (checks and updates
	// separately); 64 when zero.
	QueueDepth int
	// MaxBatch bounds how many queued update jobs one coalescing round
	// applies before re-checking for other work; 256 when zero.
	MaxBatch int
	// DefaultTimeout applies to requests that carry no deadline of their
	// own; 30s when zero.
	DefaultTimeout time.Duration
	// NodesPerSecond converts a request's remaining deadline into a node
	// budget for its BDD evaluation. Zero disables the mapping; requests
	// then run under the checker-wide budget (or their explicit per-request
	// budget).
	NodesPerSecond int
	// Replicas sizes the replicated-kernel read pool serving /check and
	// /witnesses. Zero selects GOMAXPROCS; a negative value disables
	// replication, serializing reads behind the primary worker.
	Replicas int
	// MaxBodyBytes caps the size of accepted request bodies; larger bodies
	// are rejected with 413. 8 MiB when zero; negative disables the cap.
	MaxBodyBytes int64
	// WriteTimeout mirrors the enclosing http.Server's WriteTimeout so
	// long-poll handlers (/wal?wait_ms=) can clamp their waits safely below
	// it: a handler still parked when the write timeout fires has its
	// connection cut mid-chunk, which a tailing follower sees as a spurious
	// corrupt-record error. Zero means the server has no write timeout and
	// only the built-in 30s cap applies.
	WriteTimeout time.Duration
	// SlowRequest, when positive, traces every request and logs those whose
	// total time reaches the threshold, with per-stage spans and kernel
	// deltas. Zero disables the slow-request log.
	SlowRequest time.Duration
	// SlowLog receives slow-request lines; log.Default() when nil.
	SlowLog *log.Logger
	// Store, when non-nil, makes acknowledged updates durable: the worker
	// logs every applied batch to the store's WAL before acknowledging it
	// and writes periodic snapshots. The store must be opened (and, on warm
	// restart, recovered) by the caller before New.
	Store *store.Store
	// SnapshotEveryBatches triggers a snapshot after that many coalesced
	// update rounds; when both triggers are zero and a Store is set, 64 is
	// used. Negative disables the count trigger.
	SnapshotEveryBatches int
	// SnapshotWALBytes triggers a snapshot when the WAL reaches this size.
	// Zero or negative disables the size trigger.
	SnapshotWALBytes int64
	// InitialEpoch seeds the epoch counter — the recovered epoch on warm
	// restart, so epochs keep rising monotonically across process lives.
	// Zero means a fresh start (epoch 1).
	InitialEpoch uint64
	// Reorder enables dynamic variable reordering: between update batches the
	// worker sifts the kernel's variable order when the live-node count has
	// grown past ReorderGrowth × the post-reorder baseline, then publishes
	// the compacted kernel as the round's epoch as a fresh frozen base that
	// every replica adopts, so readers swap to it with zero downtime.
	Reorder bool
	// ReorderGrowth is the trigger factor; core.ReorderGrowthDefault when
	// zero or below 1.
	ReorderGrowth float64
	// ReorderMinNodes is the live-node floor below which no sift runs;
	// core.ReorderMinNodesDefault when zero.
	ReorderMinNodes int
	// Follower, when non-nil, runs the server as a read-only replica of
	// another cvserved: it bootstraps from the leader's newest snapshot,
	// tails the leader's WAL, applies each acknowledged epoch through the
	// same incremental-maintenance path the leader uses, and refuses writes
	// (421 pointing at the leader). Requires Store. See follower.go.
	Follower *FollowerOptions
}

// DefaultMaxBodyBytes is the request-body cap applied when
// Options.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 8 << 20

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.Replicas == 0 {
		o.Replicas = runtime.GOMAXPROCS(0)
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.SlowLog == nil {
		o.SlowLog = log.Default()
	}
	if o.Store != nil && o.SnapshotEveryBatches == 0 && o.SnapshotWALBytes <= 0 {
		o.SnapshotEveryBatches = 64
	}
	return o
}

// Server owns a checker and serializes all kernel work through one worker.
type Server struct {
	chk      *core.Checker
	registry map[string]logic.Constraint
	names    []string // registry order
	opts     Options
	started  time.Time

	checks  chan *checkJob
	updates chan *updateJob
	quit    chan struct{}
	done    chan struct{}
	closing sync.Once

	// coreOpts is the checker's runtime configuration, captured at New so
	// goroutines that materialize historical or recovered checkers never
	// touch s.chk (which only the worker owns — and which a follower
	// re-bootstrap replaces outright).
	coreOpts core.Options

	// epochSig is broadcast after every epoch advance; the leader's /wal
	// long-poll waits on it instead of busy-polling the log.
	epochSig *epochSignal

	// Replication service counters (leader side), incremented by handlers.
	nSnapshotServes atomic.Uint64
	nWALServes      atomic.Uint64

	// Follower mode. follow is nil on a leader; repl is the worker channel
	// the tail loop hands snapshot installs and batch groups to (nil on a
	// leader: its select case never fires). See follower.go.
	follow     *FollowerOptions
	repl       chan *replJob
	tailDone   chan struct{}
	replCtx    context.Context
	replCancel context.CancelFunc

	// Follower-side counters and gauges (see follower.go for semantics).
	leaderEpoch        atomic.Uint64
	replState          atomic.Int32
	nTailPolls         atomic.Uint64
	nTailErrors        atomic.Uint64
	nTailRecords       atomic.Uint64
	nTailTuples        atomic.Uint64
	nSnapFetches       atomic.Uint64
	nSnapFetchFailures atomic.Uint64
	nSnapFetchBytes    atomic.Uint64
	nRebootstraps      atomic.Uint64

	snap atomic.Pointer[snapshot]

	// Replicated read path. pool is nil when replication is disabled or its
	// bootstrap failed; replicaOK drops to false when a version freeze
	// fails, sending reads back through the primary until a later freeze
	// succeeds. epoch is advanced only by the worker goroutine (and New,
	// before the worker starts) but read from handler goroutines for
	// /statsz and ?epoch validation; it moves to a round's new value only
	// after that round's WAL records are written, so any epoch a reader
	// observes is fully durable.
	pool      *replica.Pool
	replicaOK atomic.Bool
	epoch     atomic.Uint64
	// ver is the last version published to the pool, which the next round
	// extends by its updates; nil (worker-owned) when there is no chain to
	// extend, so the next publication freezes a fresh base.
	ver *replica.Version

	// Durability. st is nil when no data directory is configured.
	// constraintText is the rendered registry persisted in every snapshot;
	// batchesSinceSnap is worker-owned trigger state. The history fields
	// back the ?epoch=N read path (see history.go).
	st               *store.Store
	constraintText   string
	batchesSinceSnap int
	histMu           sync.Mutex
	history          map[uint64]*historyEntry
	histOrder        []uint64

	// metrics is the observability surface behind /metricsz: request and
	// stage latency histograms, response counters, and gauge callbacks over
	// the published snapshots. Built once in New, read lock-free after.
	metrics *serverMetrics

	// Request counters, incremented from handler goroutines.
	nChecks          atomic.Uint64
	nWitnesses       atomic.Uint64
	nUpdateJobs      atomic.Uint64
	nUpdateTuples    atomic.Uint64
	nBatches         atomic.Uint64
	nDeadlineRejects atomic.Uint64
	nQueueRejects    atomic.Uint64
	nReplicaChecks   atomic.Uint64
	nReplicaWitness  atomic.Uint64
	nReroutes        atomic.Uint64
	nEpochChecks     atomic.Uint64
	nWALErrors       atomic.Uint64
	nSnapshotErrors  atomic.Uint64
}

// snapshot is the worker-published view of checker and kernel state, read
// lock-free by /statsz. Indices are recounted only when updates run (node
// counting walks the index BDDs).
type snapshot struct {
	kernel  kernelView
	checker core.Stats
	indices []IndexStats
	tables  []TableStats
}

type kernelView struct {
	Live, Peak, Capacity, Vars, Budget, GCRuns int
	Ops, CacheHits, Allocs                     uint64
	CacheEntries                               int

	// Per-operation cache traffic, for the op-labelled hit-rate gauges.
	ApplyLookups, ApplyHits     uint64
	QuantLookups, QuantHits     uint64
	ReplaceLookups, ReplaceHits uint64

	// Dynamic-reordering counters.
	Reorders     int
	ReorderSaved uint64
}

// kernelViewOf converts a kernel snapshot into the lock-free view published
// for /statsz and the gauge callbacks.
func kernelViewOf(ks bdd.Stats) kernelView {
	return kernelView{
		Live: ks.Live, Peak: ks.Peak, Capacity: ks.Capacity,
		Vars: ks.Vars, Budget: ks.Budget, GCRuns: ks.GCRuns,
		Ops: ks.Ops, CacheHits: ks.CacheHits, Allocs: ks.Allocs,
		CacheEntries:   ks.CacheEntries,
		ApplyLookups:   ks.ApplyLookups,
		ApplyHits:      ks.ApplyHits,
		QuantLookups:   ks.QuantLookups,
		QuantHits:      ks.QuantHits,
		ReplaceLookups: ks.ReplaceLookups,
		ReplaceHits:    ks.ReplaceHits,
		Reorders:       ks.Reorders,
		ReorderSaved:   ks.ReorderSaved,
	}
}

// IndexStats describes one logical index for /statsz.
type IndexStats struct {
	Name  string `json:"name"`
	Table string `json:"table"`
	Cols  int    `json:"cols"`
	Nodes int    `json:"nodes"`
}

// TableStats describes one base table for /statsz.
type TableStats struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
}

// New creates a Server over a checker whose indices are already built, with
// the given constraint registry, and starts its worker. The caller must not
// touch the checker (or its catalog, store or kernel) afterwards: the worker
// owns them. Close shuts the worker down.
//
//cv:owner worker
func New(chk *core.Checker, constraints []logic.Constraint, opts Options) (*Server, error) {
	s := &Server{
		chk:      chk,
		registry: make(map[string]logic.Constraint, len(constraints)),
		opts:     opts.withDefaults(),
		started:  time.Now(),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, ct := range constraints {
		if _, dup := s.registry[ct.Name]; dup {
			return nil, fmt.Errorf("service: duplicate constraint %q", ct.Name)
		}
		s.registry[ct.Name] = ct
		s.names = append(s.names, ct.Name)
	}
	s.checks = make(chan *checkJob, s.opts.QueueDepth)
	s.updates = make(chan *updateJob, s.opts.QueueDepth)
	s.coreOpts = chk.Options()
	s.epochSig = newEpochSignal()
	s.st = s.opts.Store
	if s.st != nil {
		s.constraintText = store.RenderConstraints(constraints)
		s.history = make(map[uint64]*historyEntry)
	}
	if s.opts.Follower != nil {
		if s.st == nil {
			return nil, fmt.Errorf("service: follower mode requires a durability store")
		}
		f := s.opts.Follower.withDefaults()
		if f.URL == "" {
			return nil, fmt.Errorf("service: follower mode requires the leader's URL")
		}
		s.follow = &f
		s.repl = make(chan *replJob)
		s.tailDone = make(chan struct{})
		s.replCtx, s.replCancel = context.WithCancel(context.Background())
		s.replState.Store(int32(replStateStarting))
	}
	initialEpoch := uint64(1)
	if s.opts.InitialEpoch > initialEpoch {
		initialEpoch = s.opts.InitialEpoch
	}
	s.epoch.Store(initialEpoch)
	if s.opts.Replicas > 0 {
		// Freeze the bootstrap version while we still own the checker (the
		// worker has not started). A failed freeze (e.g. the index copy
		// does not fit the node budget) degrades to the single-worker read
		// path instead of failing the server.
		if v, err := replica.NewVersion(chk, initialEpoch); err == nil {
			if pool, err := replica.New(s.opts.Replicas, v); err == nil {
				s.pool, s.ver = pool, v
				s.replicaOK.Store(true)
			}
		}
	}
	s.metrics = newServerMetrics(s) // after pool setup: per-replica gauges
	if s.pool != nil {
		s.pool.SetMetrics(&replica.Metrics{
			QueueWait: s.metrics.replicaQueueWait,
			Run:       s.metrics.replicaRun,
		})
	}
	s.publish(true) // safe: the worker has not started yet
	if s.follow != nil {
		// The follower starts at the recovered epoch; until the first poll
		// answers, assume the leader is there.
		s.leaderEpoch.Store(initialEpoch)
		go s.tailLoop()
	}
	go s.run()
	return s, nil
}

// Close stops the worker (and, in follower mode, the tail loop), refusing
// queued and future work. It is idempotent and safe from any goroutine.
func (s *Server) Close() {
	s.closing.Do(func() {
		close(s.quit)
		if s.replCancel != nil {
			s.replCancel() // aborts an in-flight long-poll or snapshot fetch
		}
	})
	if s.tailDone != nil {
		<-s.tailDone
	}
	<-s.done
	if s.pool != nil {
		s.pool.Close()
	}
}

// Constraints lists the registered constraint names in registry order.
func (s *Server) Constraints() []string { return append([]string(nil), s.names...) }

// jobs

type checkJob struct {
	ctx context.Context
	cts []logic.Constraint
	// budget is the explicit per-request node cap (0 = none).
	budget int
	// witnessLimit, when positive, turns the job into witness extraction
	// for cts[0].
	witnessLimit int
	// submitted is the admission-queue entry time, for the queue_wait stage.
	submitted time.Time
	// trace collects the job's stage spans; nil when the request is untraced.
	trace *obs.Trace
	reply chan checkReply
}

type checkReply struct {
	results       []core.Result
	witnesses     []core.Witness
	witnessMethod core.Method
	err           error
}

type updateJob struct {
	ctx context.Context
	ups []core.Update
	// submitted is the admission-queue entry time, for the queue_wait stage.
	submitted time.Time
	// trace collects the job's stage spans; nil when the request is untraced.
	trace *obs.Trace
	reply chan updateReply
}

type updateReply struct {
	applied int
	err     error
}

// run is the worker loop. It alternates between applying every queued
// update batch and serving one check, so updates coalesce between checks.
//
//cv:owner worker
func (s *Server) run() {
	defer close(s.done)
	for {
		// Coalesce: everything queued for update applies before the next
		// check is taken.
		select {
		case u := <-s.updates:
			s.applyBatch(s.gatherUpdates(u))
			continue
		default:
		}
		select {
		case <-s.quit:
			s.refuseQueued()
			return
		case u := <-s.updates:
			s.applyBatch(s.gatherUpdates(u))
		case j := <-s.repl: // nil (never fires) on a leader
			s.applyRepl(j)
		case c := <-s.checks:
			s.runCheck(c)
		}
	}
}

// gatherUpdates drains further queued update jobs behind first, bounded by
// MaxBatch.
func (s *Server) gatherUpdates(first *updateJob) []*updateJob {
	batch := []*updateJob{first}
	for len(batch) < s.opts.MaxBatch {
		select {
		case u := <-s.updates:
			batch = append(batch, u)
		default:
			return batch
		}
	}
	return batch
}

// applyBatch applies each job of one coalesced round under a fresh epoch,
// logs each job's applied prefix to the WAL (log-before-ack: a WAL append
// failure is surfaced in that job's acknowledgment), publishes the
// resulting index version to the replica pool, and only then acknowledges
// the jobs: an acked update is both durable and visible to every
// subsequently submitted check, whichever replica serves it. Jobs are
// independent: one failing job does not hold back the others.
func (s *Server) applyBatch(batch []*updateJob) {
	s.nBatches.Add(1)
	k := s.chk.Store().Kernel()
	epoch := s.epoch.Load() + 1
	replies := make([]updateReply, len(batch))
	// The round's updates for the replicas: each job's applied prefix, exactly
	// what the WAL records. A failed Apply may have left the primary partly
	// changed by the failing tuple (its table row, some of its indices),
	// which no delta describes, so replicas then adopt a full copy instead.
	var roundUps []core.Update
	var applyCost time.Duration
	reset := false
	for i, u := range batch {
		if err := u.ctx.Err(); err != nil {
			s.nDeadlineRejects.Add(1)
			replies[i] = updateReply{err: err}
			continue
		}
		applyStart := time.Now()
		if !u.submitted.IsZero() {
			wait := applyStart.Sub(u.submitted)
			s.metrics.stQueueWait.Observe(wait)
			u.trace.Record("queue_wait", u.submitted, wait, nil)
		}
		before := k.Stats()
		applied, err := s.chk.Apply(u.ups)
		d := time.Since(applyStart)
		s.metrics.stApply.Observe(d)
		delta := k.Stats().DeltaSince(before)
		u.trace.Record("apply", applyStart, d, &delta)
		s.nUpdateTuples.Add(uint64(applied))
		roundUps = append(roundUps, u.ups[:applied]...)
		applyCost += d
		reset = reset || err != nil
		if s.st != nil && applied > 0 {
			walStart := time.Now()
			werr := s.st.AppendBatch(epoch, u.ups[:applied])
			u.trace.Record("wal_append", walStart, time.Since(walStart), nil)
			if werr != nil {
				// The tuples are applied but not durable; the client must
				// not treat the batch as acknowledged.
				s.nWALErrors.Add(1)
				s.opts.SlowLog.Printf("wal append failed (epoch %d): %v", epoch, werr)
				if err == nil {
					err = fmt.Errorf("service: batch applied but not logged: %w", werr)
				}
			}
		}
		replies[i] = updateReply{applied: applied, err: err}
	}
	// Between the batch and its freeze is the only safe point to reorganize
	// the kernel: no check is running (the worker owns the kernel) and the
	// compacted structure rides the very next epoch, as a fresh base that
	// every replica adopts, to replicas and snapshots. Readers keep answering
	// on the previous version while the sift runs, so reads see no downtime,
	// only old- or new-epoch answers.
	if s.opts.Reorder {
		reorderStart := time.Now()
		if st, ran := s.chk.MaybeReorder(s.opts.ReorderGrowth, s.opts.ReorderMinNodes, bdd.ReorderOptions{}); ran {
			reset = true
			d := time.Since(reorderStart)
			s.metrics.stReorder.Observe(d)
			for _, u := range batch {
				u.trace.Record("reorder", reorderStart, d, nil)
			}
			s.opts.SlowLog.Printf("reorder (epoch %d): %d -> %d nodes, %d swaps, %v",
				epoch, st.Before, st.After, st.Swaps, d)
		}
	}
	// One publication covers the whole coalesced round; every job in the
	// batch waited on it, so each trace carries the span.
	freezeStart := time.Now()
	before := k.Stats()
	s.publishVersion(epoch, roundUps, applyCost, reset)
	s.publish(true)
	fd := time.Since(freezeStart)
	s.metrics.stFreeze.Observe(fd)
	delta := k.Stats().DeltaSince(before)
	// The epoch becomes visible only after its WAL records are on disk, so
	// every epoch a /statsz or ?epoch reader can name is fully durable.
	s.epoch.Store(epoch)
	s.epochSig.bump() // wakes /wal long-polls waiting for this epoch
	s.maybeSnapshot(epoch)
	for i, u := range batch {
		u.trace.Record("freeze", freezeStart, fd, &delta)
		u.reply <- replies[i]
	}
}

// publishVersion hands the given epoch to the replica pool. Only the worker
// calls it. delta holds the updates the primary applied since the last
// published epoch, taking applyCost; replicas catch up by applying them
// (replica.Version.Advance). With reset, or with no chain to extend, the
// primary's indices are frozen as a fresh base that every replica adopts
// instead. A failed freeze routes reads back through the primary
// (replicaOK) rather than serving stale data; the next round then freezes
// afresh and re-enables the pool.
func (s *Server) publishVersion(epoch uint64, delta []core.Update, applyCost time.Duration, reset bool) {
	if s.pool == nil {
		return
	}
	var v *replica.Version
	var err error
	if reset || s.ver == nil {
		v, err = replica.NewVersion(s.chk, epoch)
	} else {
		v, err = s.ver.Advance(s.chk, epoch, delta, applyCost)
	}
	if err != nil {
		s.ver = nil
		s.replicaOK.Store(false)
		return
	}
	s.ver = v
	s.pool.Publish(v)
	s.replicaOK.Store(true)
}

// maybeSnapshot writes a snapshot when a trigger fires: enough coalesced
// rounds since the last one, or enough WAL bytes. Worker-only; a failed
// snapshot is logged and counted but does not fail updates (the WAL still
// covers them).
func (s *Server) maybeSnapshot(epoch uint64) {
	if s.st == nil {
		return
	}
	s.batchesSinceSnap++
	trigger := s.opts.SnapshotEveryBatches > 0 && s.batchesSinceSnap >= s.opts.SnapshotEveryBatches
	if s.opts.SnapshotWALBytes > 0 && s.st.WALSize() >= s.opts.SnapshotWALBytes {
		trigger = true
	}
	if !trigger {
		return
	}
	if err := s.st.WriteSnapshot(s.chk, s.constraintText, epoch); err != nil {
		s.nSnapshotErrors.Add(1)
		s.opts.SlowLog.Printf("snapshot at epoch %d failed: %v", epoch, err)
		return
	}
	s.batchesSinceSnap = 0
}

// runCheck serves one check or witness job under its deadline-derived
// budget. The stats snapshot is refreshed before the reply goes out, so a
// client that has its answer reads its own effects from /statsz.
func (s *Server) runCheck(j *checkJob) {
	if !j.submitted.IsZero() {
		wait := time.Since(j.submitted)
		s.metrics.stQueueWait.Observe(wait)
		j.trace.Record("queue_wait", j.submitted, wait, nil)
	}
	if err := j.ctx.Err(); err != nil {
		s.nDeadlineRejects.Add(1)
		j.reply <- checkReply{err: err}
		return
	}
	opts := core.CheckOptions{NodeBudget: s.budgetFor(j.ctx, j.budget)}
	var rep checkReply
	if j.witnessLimit > 0 {
		rep = s.runWitnesses(j.cts[0], j.witnessLimit, opts, j.trace)
	} else {
		results := make([]core.Result, 0, len(j.cts))
		for _, ct := range j.cts {
			if err := j.ctx.Err(); err != nil {
				// The deadline blew mid-request; the remaining constraints
				// report the context error instead of burning more kernel time.
				results = append(results, core.Result{Constraint: ct, Err: err})
				continue
			}
			evalStart := j.trace.Begin()
			res := s.chk.CheckOneOpts(ct, opts)
			s.observeResult(res, evalStart, j.trace)
			results = append(results, res)
		}
		rep = checkReply{results: results}
	}
	s.publish(false)
	j.reply <- rep
}

// observeResult feeds one validation's timings into the stage histograms and
// the request trace: the result's SQL share becomes a sql:<name> span, the
// remainder an eval:<name> span carrying the kernel delta (the SQL engine
// never touches the kernel).
func (s *Server) observeResult(res core.Result, evalStart time.Time, tr *obs.Trace) {
	bddD := res.BDDDuration()
	s.metrics.stEval.Observe(bddD)
	tr.Record("eval:"+res.Constraint.Name, evalStart, bddD, &res.Kernel)
	if res.SQLDuration > 0 {
		s.metrics.stSQL.Observe(res.SQLDuration)
		tr.Record("sql:"+res.Constraint.Name, evalStart.Add(bddD), res.SQLDuration, nil)
	}
}

// runWitnesses extracts violating bindings from the BDD evaluation, falling
// back to the compiled SQL violation query when the BDD path yields nothing
// (missing index, budget, or an existence-mode constraint) — the same
// two-step drill-down cvcheck performs.
func (s *Server) runWitnesses(ct logic.Constraint, limit int, opts core.CheckOptions, tr *obs.Trace) checkReply {
	k := s.chk.Store().Kernel()
	enumStart := time.Now()
	before := k.Stats()
	ws, err := s.chk.ViolationWitnessesOpts(ct, limit, opts)
	enumD := time.Since(enumStart)
	s.metrics.stWitness.Observe(enumD)
	delta := k.Stats().DeltaSince(before)
	tr.Record("witness_enum", enumStart, enumD, &delta)
	if err == nil && len(ws) > 0 {
		return checkReply{witnesses: ws, witnessMethod: core.MethodBDD}
	}
	sqlStart := time.Now()
	rows, rerr := s.chk.ViolatingRows(ct)
	sqlD := time.Since(sqlStart)
	s.metrics.stSQL.Observe(sqlD)
	tr.Record("sql:"+ct.Name, sqlStart, sqlD, nil)
	if rerr != nil {
		if err != nil {
			return checkReply{err: err}
		}
		return checkReply{err: rerr}
	}
	for i := 0; i < rows.Len() && i < limit; i++ {
		ws = append(ws, core.Witness{Vars: rows.Vars, Values: rows.Decode(i)})
	}
	return checkReply{witnesses: ws, witnessMethod: core.MethodSQL}
}

// budgetFor combines the request's explicit node cap with the cap derived
// from its remaining deadline. It only reads immutable options, so both the
// worker and the replica dispatch path (handler goroutines) may call it.
func (s *Server) budgetFor(ctx context.Context, explicit int) int {
	b := explicit
	if s.opts.NodesPerSecond > 0 {
		if dl, ok := ctx.Deadline(); ok {
			d := int(time.Until(dl).Seconds() * float64(s.opts.NodesPerSecond))
			if d < 1 {
				d = 1 // expired deadlines were rejected earlier; keep the cap positive
			}
			if b <= 0 || d < b {
				b = d
			}
		}
	}
	return b
}

// refuseQueued acknowledges every queued job with ErrShuttingDown so no
// submitter is left waiting on a dead worker.
func (s *Server) refuseQueued() {
	for {
		select {
		case u := <-s.updates:
			u.reply <- updateReply{err: ErrShuttingDown}
		case c := <-s.checks:
			c.reply <- checkReply{err: ErrShuttingDown}
		case j := <-s.repl: // nil (never fires) on a leader
			j.reply <- replResult{err: ErrShuttingDown}
		default:
			return
		}
	}
}

// publish refreshes the stats snapshot. Only the worker (or New, before the
// worker starts) may call it. full recounts index nodes, which walks the
// index BDDs; check jobs publish light snapshots and reuse the last counts.
func (s *Server) publish(full bool) {
	snap := &snapshot{
		kernel:  kernelViewOf(s.chk.KernelStats()),
		checker: s.chk.Stats(),
	}
	for _, t := range s.chk.Catalog().Tables() {
		snap.tables = append(snap.tables, TableStats{Name: t.Name(), Rows: t.Len(), Cols: t.NumCols()})
	}
	if prev := s.snap.Load(); !full && prev != nil {
		snap.indices = prev.indices
	} else {
		store := s.chk.Store()
		for _, name := range store.Names() {
			ix := store.Index(name)
			snap.indices = append(snap.indices, IndexStats{
				Name:  name,
				Table: ix.Table().Name(),
				Cols:  len(ix.Columns()),
				Nodes: ix.NodeCount(),
			})
		}
	}
	s.snap.Store(snap)
}

// submission (called from handler goroutines)

// resolve maps a request's constraint names (and optional inline
// declarations) to constraints; with neither, the whole registry is checked.
func (s *Server) resolve(names []string, text string) ([]logic.Constraint, error) {
	var cts []logic.Constraint
	for _, name := range names {
		ct, ok := s.registry[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownConstraint, name)
		}
		cts = append(cts, ct)
	}
	if text != "" {
		parsed, err := logic.ParseConstraints(text)
		if err != nil {
			return nil, err
		}
		cts = append(cts, parsed...)
	}
	if len(cts) == 0 {
		for _, name := range s.names {
			cts = append(cts, s.registry[name])
		}
	}
	return cts, nil
}

// submitCheck serves a check (or witness) job: on the replicated read path
// when the pool is healthy, behind the primary worker otherwise.
func (s *Server) submitCheck(ctx context.Context, cts []logic.Constraint, budget, witnessLimit int, tr *obs.Trace) (checkReply, error) {
	if s.pool != nil && s.replicaOK.Load() {
		if witnessLimit > 0 {
			if rep, ok := s.replicaWitnesses(ctx, cts[0], witnessLimit, budget, tr); ok {
				s.nReplicaWitness.Add(1)
				return rep, nil
			}
		} else if rep, ok := s.replicaCheck(ctx, cts, budget, tr); ok {
			s.nReplicaChecks.Add(1)
			return rep, rep.err
		}
	}
	return s.submitPrimaryCheck(ctx, cts, budget, witnessLimit, tr)
}

// replicaCheck runs a check job on some replica worker. Constraints the
// replica cannot decide — they need the SQL fallback, which must see the
// live tables — are rerouted to the primary worker and merged back by
// position. ok is false when the pool could not take the job at all (closed
// or failed materialization); the caller then retries on the primary.
func (s *Server) replicaCheck(ctx context.Context, cts []logic.Constraint, budget int, tr *obs.Trace) (checkReply, bool) {
	results := make([]core.Result, len(cts))
	opts := core.CheckOptions{NodeBudget: s.budgetFor(ctx, budget), NoSQLFallback: true}
	submitted := tr.Begin()
	err := s.pool.Do(ctx, func(chk *core.Checker, _ uint64) {
		tr.Span("queue_wait", submitted)
		for i, ct := range cts {
			if cerr := ctx.Err(); cerr != nil {
				results[i] = core.Result{Constraint: ct, Err: cerr}
				continue
			}
			evalStart := tr.Begin()
			res := chk.CheckOneOpts(ct, opts)
			s.observeResult(res, evalStart, tr)
			results[i] = res
		}
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return checkReply{err: err}, true
		}
		return checkReply{}, false
	}
	// Constraints that reported a needed fallback rerun on the primary.
	var reroute []int
	for i, res := range results {
		if res.FellBack && res.Err != nil {
			reroute = append(reroute, i)
		}
	}
	if len(reroute) > 0 {
		s.nReroutes.Add(uint64(len(reroute)))
		sub := make([]logic.Constraint, len(reroute))
		for j, i := range reroute {
			sub[j] = cts[i]
		}
		rep, err := s.submitPrimaryCheck(ctx, sub, budget, 0, tr)
		if err != nil {
			return checkReply{err: err}, true
		}
		for j, i := range reroute {
			results[i] = rep.results[j]
		}
	}
	return checkReply{results: results}, true
}

// replicaWitnesses extracts witnesses on a replica. Only a definite BDD
// answer with at least one witness is served from the replica; everything
// else (budget blown, missing index, or zero witnesses, which the primary
// double-checks against the live tables via SQL) routes to the primary.
func (s *Server) replicaWitnesses(ctx context.Context, ct logic.Constraint, limit, budget int, tr *obs.Trace) (checkReply, bool) {
	var ws []core.Witness
	var werr error
	opts := core.CheckOptions{NodeBudget: s.budgetFor(ctx, budget)}
	submitted := tr.Begin()
	err := s.pool.Do(ctx, func(chk *core.Checker, _ uint64) {
		tr.Span("queue_wait", submitted)
		k := chk.Store().Kernel()
		enumStart := time.Now()
		before := k.Stats()
		ws, werr = chk.ViolationWitnessesOpts(ct, limit, opts)
		enumD := time.Since(enumStart)
		s.metrics.stWitness.Observe(enumD)
		delta := k.Stats().DeltaSince(before)
		tr.Record("witness_enum", enumStart, enumD, &delta)
	})
	if err != nil || werr != nil || len(ws) == 0 {
		return checkReply{}, false
	}
	return checkReply{witnesses: ws, witnessMethod: core.MethodBDD}, true
}

// submitPrimaryCheck queues a check (or witness) job on the primary worker
// and waits for its reply.
func (s *Server) submitPrimaryCheck(ctx context.Context, cts []logic.Constraint, budget, witnessLimit int, tr *obs.Trace) (checkReply, error) {
	j := &checkJob{
		ctx:          ctx,
		cts:          cts,
		budget:       budget,
		witnessLimit: witnessLimit,
		submitted:    time.Now(),
		trace:        tr,
		reply:        make(chan checkReply, 1),
	}
	select {
	case s.checks <- j:
	case <-ctx.Done():
		s.nQueueRejects.Add(1)
		return checkReply{}, fmt.Errorf("%w (%v)", ErrBusy, ctx.Err())
	case <-s.quit:
		return checkReply{}, ErrShuttingDown
	}
	select {
	case rep := <-j.reply:
		return rep, rep.err
	case <-ctx.Done():
		// The worker may still serve the job; the buffered reply channel
		// means it will not block on our departure.
		return checkReply{}, ctx.Err()
	case <-s.quit:
		return checkReply{}, ErrShuttingDown
	}
}

// submitUpdate queues an update job and waits for its acknowledgement.
func (s *Server) submitUpdate(ctx context.Context, ups []core.Update, tr *obs.Trace) (int, error) {
	j := &updateJob{
		ctx: ctx, ups: ups,
		submitted: time.Now(),
		trace:     tr,
		reply:     make(chan updateReply, 1),
	}
	select {
	case s.updates <- j:
	case <-ctx.Done():
		s.nQueueRejects.Add(1)
		return 0, fmt.Errorf("%w (%v)", ErrBusy, ctx.Err())
	case <-s.quit:
		return 0, ErrShuttingDown
	}
	select {
	case rep := <-j.reply:
		return rep.applied, rep.err
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-s.quit:
		return 0, ErrShuttingDown
	}
}
