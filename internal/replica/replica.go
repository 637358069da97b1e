// Package replica implements the replicated-kernel read path: N read-only
// copies of the primary checker's logical indices, each with its own BDD
// kernel, operation caches and evaluator, so constraint checks fan out
// across cores with zero shared mutable state. BDD kernels are not
// thread-safe and a shared unique table would serialize every lookup behind
// a lock; replicating the (physically small, structurally shared) index
// DAGs per worker removes all contention, the same trick factorised-
// representation query engines use to keep reads lock-free.
//
// Replicas are maintained the way the paper maintains its indices (§2.3):
// incrementally. Published versions form a chain. Each Version carries the
// updates that took its predecessor's state to its own (the applied prefix
// the write-ahead log records), and points back to its predecessor and to a
// base: a frozen full copy of the primary's catalog and indices taken at or
// before its epoch.
//
// Ownership rules:
//
//   - The primary checker is owned exclusively by whoever applies writes
//     (internal/service's worker goroutine). Replicas never see it.
//   - After each write batch the primary's owner publishes the next Version.
//     Usually that is Advance: the batch's updates appended to the chain,
//     with no copy of the indices. NewVersion (bootstrap, after a reorder,
//     after a reload or a failed round) and Advance's periodic rebase freeze
//     a full base instead: a catalog clone plus an index copy into a fresh
//     kernel. Both read the primary, so they run on the owner's goroutine.
//   - Pool workers each own one replica checker with a catalog of its own.
//     Between requests a worker that finds a newer Version catches up by
//     applying the chain's updates since its own version through
//     core.Checker.Apply, keeping its kernel, op caches and evaluator warm. A
//     worker with no checker yet, or one the chain no longer reaches (after a
//     reset, or too far behind), adopts the latest base into a fresh kernel
//     and replays the chain from there. In-flight work always finishes on the
//     version it started with.
//   - A Version is never mutated after publication except for trimming its
//     back link (an atomic pointer), and a base is only read (Catalog.Clone
//     and bdd.CopyTo do not touch their source), so any number of workers
//     may walk the chain and adopt from a base concurrently.
//
// The chain's length is bounded by the rebase rule in Advance: once the
// primary's summed Apply time since the last base exceeds replayPerFreeze
// times what that base took to freeze (or the chain reaches maxHops
// versions), the next version freezes a fresh base, which caps a cold
// worker's replay at about two freezes while spending on freezes at most
// half the write path's Apply time. A rebase keeps the back link to its
// predecessor, so warm workers keep catching up by deltas, and cuts the
// chain behind the previous base: the pool retains at most two base
// intervals of updates and two bases, however long any worker stays idle.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/obs"
)

// ErrClosed is returned by Do after the pool has been closed.
var ErrClosed = errors.New("replica: pool closed")

// replayPerFreeze is how many freezes' worth of primary Apply time a chain
// accumulates since its base before the next version freezes a new one.
const replayPerFreeze = 2

// maxHops bounds the versions between two bases even when rounds cost no
// Apply time (empty rounds, a follower adopting confirmed epochs).
const maxHops = 256

// Version is one published state of the primary's catalog and indices. The
// zero epoch is never published; epochs increase along a chain.
type Version struct {
	epoch uint64
	// prev is the version this one derives from by applying delta. It is nil
	// for a reset (NewVersion) and is cut once the version falls out of the
	// retained window.
	prev  atomic.Pointer[Version]
	delta []core.Update
	// base is the newest full copy at or before this version. hops counts
	// the versions since it (0 for the version that froze it) and replay the
	// primary's Apply time over their deltas.
	base   *base
	hops   int
	replay time.Duration
}

// base is a frozen full copy of the primary: an immutable catalog clone and
// a private kernel holding the indices, with the time the copy took.
type base struct {
	frozen *core.Checker
	snaps  []core.IndexSnapshot
	cost   time.Duration
}

// NewVersion freezes the primary checker into a new base tagged with epoch,
// with no predecessor: every worker adopts it afresh. Use it for the first
// version and wherever replicas should drop their kernels (after a reorder,
// so they inherit the compacted order; after the primary was rebuilt or a
// round left it partially applied). It must be called from the goroutine
// that owns the primary; the returned Version is safe to share.
func NewVersion(primary *core.Checker, epoch uint64) (*Version, error) {
	b, err := freeze(primary, epoch)
	if err != nil {
		return nil, err
	}
	return &Version{epoch: epoch, base: b}, nil
}

// freeze deep-clones the primary's catalog metadata (sharing the encoded row
// storage; rows are never mutated in place) and copies every index root into
// a fresh kernel, so later writes to the primary cannot reach the copy.
func freeze(primary *core.Checker, epoch uint64) (*base, error) {
	start := time.Now()
	frozen := core.New(primary.Catalog().Clone(), primary.Options())
	if err := frozen.AdoptIndices(primary.Store().Kernel(), primary.SnapshotIndices()); err != nil {
		return nil, fmt.Errorf("replica: freezing epoch %d: %w", epoch, err)
	}
	return &base{frozen: frozen, snaps: frozen.SnapshotIndices(), cost: time.Since(start)}, nil
}

// Advance returns the version at epoch that follows v by the updates in
// delta, which the primary has already applied in applyCost. delta must be
// exactly what took the primary from v's state to its current one; the
// Version keeps the slice, so the caller must not modify it afterwards.
//
// Usually the result only records delta. When the chain since v's base has
// cost more than replayPerFreeze times the base's freeze time in Apply, or
// has grown to maxHops versions, Advance freezes a new base from primary as
// well (a rebase) and cuts the chain behind the previous base. Warm workers
// still catch up by delta across a rebase. The error is a failed rebase
// freeze; the caller should then fall back to NewVersion. Like NewVersion,
// Advance must be called from the goroutine that owns the primary.
func (v *Version) Advance(primary *core.Checker, epoch uint64, delta []core.Update, applyCost time.Duration) (*Version, error) {
	next := &Version{epoch: epoch, delta: delta, base: v.base, hops: v.hops + 1, replay: v.replay + applyCost}
	next.prev.Store(v)
	if next.replay <= replayPerFreeze*v.base.cost && next.hops < maxHops {
		return next, nil
	}
	b, err := freeze(primary, epoch)
	if err != nil {
		return nil, err
	}
	next.base, next.hops, next.replay = b, 0, 0
	// Workers at or past v's base keep a delta path; older ones re-adopt.
	v.baseVersion().prev.Store(nil)
	return next, nil
}

// Epoch returns the version's epoch.
func (v *Version) Epoch() uint64 { return v.epoch }

// baseVersion walks back to the version that froze v's base.
func (v *Version) baseVersion() *Version {
	for v.hops > 0 {
		v = v.prev.Load()
	}
	return v
}

// deltasSince lists, oldest first, the versions whose deltas take from's
// state to v's. ok is false when the chain no longer reaches from.
func (v *Version) deltasSince(from *Version) (path []*Version, ok bool) {
	for cur := v; cur != from; cur = cur.prev.Load() {
		if cur == nil {
			return nil, false
		}
		path = append(path, cur)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}

// materialize builds a worker-private checker at v: a clone of the base's
// catalog (the worker applies updates to it) and a fresh kernel populated by
// one CopyTo walk, then the chain's updates since the base. It returns the
// number of tuples replayed.
func (v *Version) materialize() (*core.Checker, int, error) {
	frozen := v.base.frozen
	chk := core.New(frozen.Catalog().Clone(), frozen.Options())
	if err := chk.AdoptIndices(frozen.Store().Kernel(), v.base.snaps); err != nil {
		return nil, 0, fmt.Errorf("replica: materializing epoch %d: %w", v.epoch, err)
	}
	path, _ := v.deltasSince(v.baseVersion()) // reached by construction
	n, err := replay(chk, path)
	if err != nil {
		return nil, n, fmt.Errorf("replica: materializing epoch %d: %w", v.epoch, err)
	}
	return chk, n, nil
}

// replay applies the deltas of path, in order, to chk. It returns the number
// of tuples applied; on error chk is partially updated and must be dropped.
func replay(chk *core.Checker, path []*Version) (int, error) {
	total := 0
	for _, v := range path {
		n, err := chk.Apply(v.delta)
		total += n
		if err != nil {
			return total, fmt.Errorf("replica: catching up to epoch %d: %w", v.epoch, err)
		}
	}
	return total, nil
}

// Stats is one worker's counters, published after every job and swap.
type Stats struct {
	// Worker is the worker's index in the pool.
	Worker int
	// Epoch is the version the worker currently serves; zero until its
	// first job.
	Epoch uint64
	// Jobs counts requests served by this worker.
	Jobs uint64
	// Kernel snapshots the worker's private kernel counters.
	Kernel bdd.Stats
	// Checker accumulates the worker's decision counters across every
	// checker it has held (a re-adoption replaces the checker; the retired
	// checker's counters are folded in rather than lost). Replicas never run
	// the SQL fallback, so SQLFallbacks stays zero here; rerouted
	// constraints are counted by the primary.
	Checker core.Stats
}

// Pool runs a fixed set of replica workers. Reads are submitted with Do;
// new index versions arrive via Publish and are picked up by each worker
// between requests.
type Pool struct {
	latest  atomic.Pointer[Version]
	jobs    chan job
	workers int

	mu     sync.RWMutex // guards send-vs-close on jobs
	closed bool
	wg     sync.WaitGroup

	swaps         atomic.Uint64
	adoptions     atomic.Uint64
	catchupTuples atomic.Uint64
	stats         []atomic.Pointer[Stats]

	// metrics, when set, receives per-job latency observations. Written
	// once before traffic (SetMetrics), read by Do and the workers.
	metrics atomic.Pointer[Metrics]
}

// Metrics is the pool's hook into the observability layer: per-job queue
// wait (submission to worker pickup) and run time histograms. All fields
// may be nil to skip the corresponding observation.
type Metrics struct {
	// QueueWait observes submission-to-pickup latency per job.
	QueueWait *obs.Histogram
	// Run observes the job body's execution time (including any catch-up
	// or materialization it triggered).
	Run *obs.Histogram
}

// SetMetrics installs latency instrumentation. Call it before the pool
// serves traffic; jobs already in flight may be recorded partially.
func (p *Pool) SetMetrics(m *Metrics) { p.metrics.Store(m) }

type job struct {
	fn        func(chk *core.Checker, epoch uint64)
	submitted time.Time // zero when the pool is uninstrumented
	err       chan error
}

// New starts a pool of n workers serving v. Workers materialize their
// replica lazily on first use, so constructing a pool is cheap.
func New(n int, v *Version) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("replica: pool needs at least 1 worker, got %d", n)
	}
	if v == nil {
		return nil, errors.New("replica: pool needs an initial version")
	}
	p := &Pool{
		jobs:    make(chan job, 2*n),
		workers: n,
		stats:   make([]atomic.Pointer[Stats], n),
	}
	p.latest.Store(v)
	for i := 0; i < n; i++ {
		p.stats[i].Store(&Stats{Worker: i})
		p.wg.Add(1)
		go p.worker(i)
	}
	return p, nil
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.workers }

// Epoch returns the epoch of the latest published version.
func (p *Pool) Epoch() uint64 { return p.latest.Load().Epoch() }

// Swaps returns how many version handoffs workers have completed, by delta
// catch-up or by adoption (the initial materialization of each worker
// counts as one).
func (p *Pool) Swaps() uint64 { return p.swaps.Load() }

// Adoptions returns how many times a worker built its checker from a full
// base instead of catching up by deltas.
func (p *Pool) Adoptions() uint64 { return p.adoptions.Load() }

// CatchupTuples returns how many update tuples workers have applied to
// reach newer versions, replays after an adoption included.
func (p *Pool) CatchupTuples() uint64 { return p.catchupTuples.Load() }

// Publish hands a new version to the pool. Workers move to it before their
// next request; in-flight requests finish on the version they started with.
// Publish never blocks and is safe to call concurrently with Do, though
// versions must be produced by a single owner to keep epochs monotonic.
func (p *Pool) Publish(v *Version) { p.latest.Store(v) }

// Stats returns the latest per-worker counters, in worker order.
func (p *Pool) Stats() []Stats {
	out := make([]Stats, p.workers)
	for i := range p.stats {
		out[i] = *p.stats[i].Load()
	}
	return out
}

// Do runs fn on some replica worker and waits for it to finish. fn receives
// the worker's private checker and the epoch it serves; it must not retain
// the checker past its return. Submission respects ctx, but once a worker
// has accepted the job Do waits for completion regardless of ctx — fn
// typically writes into the caller's locals. Do returns ErrClosed after
// Close, or the worker's error if it could not bring its replica to the
// latest version; fn then does not run.
func (p *Pool) Do(ctx context.Context, fn func(chk *core.Checker, epoch uint64)) error {
	jb := job{fn: fn, err: make(chan error, 1)}
	if p.metrics.Load() != nil {
		jb.submitted = time.Now()
	}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrClosed
	}
	// The read lock is held across the (possibly blocking) send so Close
	// cannot close the channel under a pending send: workers keep draining
	// until Close gets the write lock, so the send always completes.
	select {
	case p.jobs <- jb:
		p.mu.RUnlock()
	case <-ctx.Done():
		p.mu.RUnlock()
		return ctx.Err()
	}
	return <-jb.err
}

// Close stops the workers after draining already-accepted jobs. Do calls
// racing with Close either complete or return ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}

// replicaState is one worker's private checker and the version it holds.
type replicaState struct {
	cur     *Version
	chk     *core.Checker
	retired core.Stats // counters of checkers the worker dropped
}

// catchUp brings the worker to latest: by the chain's deltas when it holds a
// checker the chain still reaches, otherwise (or when applying a delta
// fails, say on the node budget) by adopting latest's base afresh. On error
// the worker holds no checker, so it never serves a stale or partially
// updated state.
func (p *Pool) catchUp(r *replicaState, latest *Version) error {
	if r.chk != nil {
		if path, ok := latest.deltasSince(r.cur); ok {
			n, err := replay(r.chk, path)
			p.catchupTuples.Add(uint64(n))
			if err == nil {
				r.cur = latest
				p.swaps.Add(1)
				return nil
			}
		}
		r.retired = addStats(r.retired, r.chk.Stats())
		r.cur, r.chk = nil, nil
	}
	chk, n, err := latest.materialize()
	p.catchupTuples.Add(uint64(n))
	if err != nil {
		return err
	}
	r.cur, r.chk = latest, chk
	p.adoptions.Add(1)
	p.swaps.Add(1)
	return nil
}

func (p *Pool) worker(i int) {
	defer p.wg.Done()
	var r replicaState
	var jobs uint64
	for jb := range p.jobs {
		m := p.metrics.Load()
		var picked time.Time
		if m != nil {
			picked = time.Now()
			if m.QueueWait != nil && !jb.submitted.IsZero() {
				m.QueueWait.Observe(picked.Sub(jb.submitted))
			}
		}
		if latest := p.latest.Load(); r.cur != latest {
			// Never fall back to an older version here: the job may have
			// been submitted after an acknowledged update that only latest
			// contains. The caller reroutes to the primary instead.
			if err := p.catchUp(&r, latest); err != nil {
				jb.err <- err
				continue
			}
		}
		jb.fn(r.chk, r.cur.epoch)
		if m != nil && m.Run != nil {
			m.Run.Observe(time.Since(picked))
		}
		jobs++
		p.stats[i].Store(&Stats{
			Worker: i, Epoch: r.cur.epoch, Jobs: jobs,
			Kernel: r.chk.KernelStats(), Checker: addStats(r.retired, r.chk.Stats()),
		})
		jb.err <- nil
	}
}

func addStats(a, b core.Stats) core.Stats {
	a.BDDChecks += b.BDDChecks
	a.FDFastPath += b.FDFastPath
	a.SQLFallbacks += b.SQLFallbacks
	a.Errors += b.Errors
	return a
}
