package service

// follower.go is the replica side of replication. A server started with
// Options.Follower bootstraps from the leader's newest snapshot, then tails
// the leader's WAL over /wal long-polls, applying each acknowledged epoch
// through the same incremental-maintenance path the leader used to produce
// it, logging it to its own WAL (so a restart resumes from the local log, no
// refetch), and publishing it through its replica pool. The follower serves
// /check and /witnesses exactly like a leader; /update is refused with 421
// pointing at the leader.
//
// Two goroutines split the work. The tail goroutine owns all leader I/O —
// long-polls, snapshot downloads, retry backoff — and never touches the
// checker. The worker (the same loop that owns the kernel on a leader)
// applies what the tail goroutine hands over via the repl channel: either a
// group of tailed batches or an order to rebuild the checker from the local
// store after a snapshot install. Keeping kernel work on the worker
// preserves the single-owner model; keeping network work off it keeps reads
// responsive while the leader is slow or down.
//
// Failure policy: any local apply or WAL-append failure makes the replica's
// state unreliable (a gap in its log would poison its own recovery), so the
// tail loop responds to either — and to the leader's 410 "pruned past your
// position" — by re-bootstrapping: fetch the newest snapshot, install it
// (verified against the leader's declared length and CRC), and rebuild the
// checker from the store. Everything else (network errors, non-200s) is
// retried with exponential backoff; the follower keeps serving reads from
// its last good state throughout, unless MaxLag says that state is too old.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// ErrStale is returned for live reads on a follower that has fallen more
// than FollowerOptions.MaxLag epochs behind the leader. Mapped to 503: the
// replica is alive but refusing to serve data it knows is too old.
var ErrStale = errors.New("service: follower too far behind the leader")

// errNeedBootstrap routes the tail loop to a snapshot re-fetch: the leader
// pruned past our position, or local apply failed and the checker must be
// rebuilt from a known-good snapshot.
var errNeedBootstrap = errors.New("service: follower needs re-bootstrap")

// maxReplBackoff caps the tail loop's exponential retry delay.
const maxReplBackoff = 5 * time.Second

// FollowerOptions configures follower mode (Options.Follower).
type FollowerOptions struct {
	// URL is the leader's base URL, e.g. "http://10.0.0.1:8080".
	URL string
	// MaxLag, when non-zero, refuses live /check and /witnesses requests
	// with 503 once the follower is more than MaxLag epochs behind the
	// leader's last reported epoch. Zero serves reads at any staleness.
	MaxLag uint64
	// PollWait is how long each /wal long-poll asks the leader to hold the
	// request waiting for news; 10s when zero.
	PollWait time.Duration
	// Backoff is the initial delay after a failed poll or bootstrap,
	// doubling per consecutive failure up to 5s; 250ms when zero.
	Backoff time.Duration
	// Client is the HTTP client for all leader traffic; a fresh client when
	// nil. Do not set Client.Timeout below PollWait: per-request contexts
	// already bound every call.
	Client *http.Client
}

func (f FollowerOptions) withDefaults() FollowerOptions {
	f.URL = strings.TrimRight(f.URL, "/")
	if f.PollWait <= 0 {
		f.PollWait = 10 * time.Second
	}
	if f.Backoff <= 0 {
		f.Backoff = 250 * time.Millisecond
	}
	if f.Client == nil {
		f.Client = &http.Client{}
	}
	return f
}

// followerState is the tail loop's phase, for /statsz and the state gauge.
type followerState int32

const (
	// replStateStarting: no successful poll yet since boot.
	replStateStarting followerState = iota
	// replStateTailing: polling /wal and applying batches.
	replStateTailing
	// replStateBootstrapping: fetching and installing a snapshot.
	replStateBootstrapping
	// replStateRetrying: last attempt failed; waiting out the backoff.
	replStateRetrying
)

func (st followerState) String() string {
	switch st {
	case replStateStarting:
		return "starting"
	case replStateTailing:
		return "tailing"
	case replStateBootstrapping:
		return "bootstrapping"
	case replStateRetrying:
		return "retrying"
	}
	return "unknown"
}

// replJob is the tail goroutine's handover to the worker.
type replJob struct {
	// reload, when true, orders the worker to rebuild its checker from the
	// local store (after the tail goroutine installed a snapshot into it).
	reload bool
	// batches are tailed WAL records to apply, in leader append order.
	batches []store.Batch
	// confirmedEpoch is the leader epoch the poll response covered: every
	// record up to it was delivered, so after applying the batches the
	// follower may adopt it even past the last record (leader rounds that
	// applied zero tuples advance the epoch without writing a record).
	confirmedEpoch uint64
	reply          chan replResult
}

type replResult struct {
	epoch uint64
	err   error
}

// FollowerStats is the follower block of /statsz.
type FollowerStats struct {
	// Leader is the leader's base URL.
	Leader string `json:"leader"`
	// State is the tail loop's phase: starting, tailing, bootstrapping or
	// retrying.
	State string `json:"state"`
	// Epoch is the follower's applied epoch; LeaderEpoch the leader's last
	// reported one; LagEpochs their distance (zero when caught up).
	Epoch       uint64 `json:"epoch"`
	LeaderEpoch uint64 `json:"leader_epoch"`
	LagEpochs   uint64 `json:"lag_epochs"`
	// TailPolls counts /wal requests that reached the leader; TailErrors
	// failed polls; TailRecords and TailTuples what the successful ones
	// delivered and applied.
	TailPolls   uint64 `json:"tail_polls"`
	TailErrors  uint64 `json:"tail_errors"`
	TailRecords uint64 `json:"tail_records"`
	TailTuples  uint64 `json:"tail_tuples"`
	// SnapshotFetches counts snapshot downloads started in this process
	// (boot-time fetches before New are not included), with their failures
	// and total streamed bytes; Rebootstraps counts full re-bootstrap
	// cycles the tail loop was forced into.
	SnapshotFetches       uint64 `json:"snapshot_fetches"`
	SnapshotFetchFailures uint64 `json:"snapshot_fetch_failures"`
	SnapshotFetchBytes    uint64 `json:"snapshot_fetch_bytes"`
	Rebootstraps          uint64 `json:"rebootstraps"`
}

// followerStats assembles the /statsz follower block; nil on a leader.
func (s *Server) followerStats() *FollowerStats {
	if s.follow == nil {
		return nil
	}
	return &FollowerStats{
		Leader:                s.follow.URL,
		State:                 followerState(s.replState.Load()).String(),
		Epoch:                 s.epoch.Load(),
		LeaderEpoch:           s.leaderEpoch.Load(),
		LagEpochs:             s.followerLag(),
		TailPolls:             s.nTailPolls.Load(),
		TailErrors:            s.nTailErrors.Load(),
		TailRecords:           s.nTailRecords.Load(),
		TailTuples:            s.nTailTuples.Load(),
		SnapshotFetches:       s.nSnapFetches.Load(),
		SnapshotFetchFailures: s.nSnapFetchFailures.Load(),
		SnapshotFetchBytes:    s.nSnapFetchBytes.Load(),
		Rebootstraps:          s.nRebootstraps.Load(),
	}
}

// followerLag is the epoch distance to the leader's last reported epoch.
func (s *Server) followerLag() uint64 {
	le, cur := s.leaderEpoch.Load(), s.epoch.Load()
	if le <= cur {
		return 0
	}
	return le - cur
}

// stalenessErr refuses live reads past the configured lag bound; nil on a
// leader, with MaxLag unset, or while caught up.
func (s *Server) stalenessErr() error {
	if s.follow == nil || s.follow.MaxLag == 0 {
		return nil
	}
	if lag := s.followerLag(); lag > s.follow.MaxLag {
		return fmt.Errorf("%w: %d epochs behind (max %d)", ErrStale, lag, s.follow.MaxLag)
	}
	return nil
}

// the tail goroutine

// tailLoop drives the follower until shutdown: poll, apply, and on failure
// back off or re-bootstrap. Started by New; Close cancels replCtx and waits
// on tailDone.
//
//cv:owner any
func (s *Server) tailLoop() {
	defer close(s.tailDone)
	backoff := s.follow.Backoff
	for {
		if s.replCtx.Err() != nil {
			return
		}
		err := s.tailOnce()
		if err == nil {
			backoff = s.follow.Backoff
			continue
		}
		if s.replCtx.Err() != nil || errors.Is(err, ErrShuttingDown) {
			return
		}
		if errors.Is(err, errNeedBootstrap) {
			s.replState.Store(int32(replStateBootstrapping))
			s.nRebootstraps.Add(1)
			s.opts.SlowLog.Printf("follower: re-bootstrapping from %s: %v", s.follow.URL, err)
			berr := s.bootstrapOnce()
			if berr == nil {
				backoff = s.follow.Backoff
				continue
			}
			if s.replCtx.Err() != nil || errors.Is(berr, ErrShuttingDown) {
				return
			}
			s.opts.SlowLog.Printf("follower: bootstrap from %s failed: %v", s.follow.URL, berr)
		} else {
			s.nTailErrors.Add(1)
			s.opts.SlowLog.Printf("follower: tailing %s: %v", s.follow.URL, err)
		}
		s.replState.Store(int32(replStateRetrying))
		if !s.replSleep(backoff) {
			return
		}
		if backoff *= 2; backoff > maxReplBackoff {
			backoff = maxReplBackoff
		}
	}
}

// tailOnce runs one /wal long-poll and hands its batches to the worker.
func (s *Server) tailOnce() error {
	from := s.epoch.Load()
	url := fmt.Sprintf("%s/wal?from=%d&wait_ms=%d", s.follow.URL, from, s.follow.PollWait.Milliseconds())
	ctx, cancel := context.WithTimeout(s.replCtx, s.follow.PollWait+15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := s.follow.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	s.nTailPolls.Add(1)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%w: leader pruned epochs past %d", errNeedBootstrap, from)
	default:
		return fmt.Errorf("leader /wal: %s", readErrorBody(resp))
	}
	var tr WALTailResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return fmt.Errorf("leader /wal: bad response body: %v", err)
	}
	s.leaderEpoch.Store(tr.Epoch)
	s.replState.Store(int32(replStateTailing))
	if len(tr.Batches) == 0 && tr.Epoch <= from {
		return nil // quiet long-poll timeout: nothing new
	}
	batches := make([]store.Batch, len(tr.Batches))
	var tuples uint64
	for i, b := range tr.Batches {
		batches[i] = store.Batch{Epoch: b.Epoch, Updates: fromWireUpdates(b.Updates)}
		tuples += uint64(len(b.Updates))
	}
	res, err := s.submitRepl(&replJob{batches: batches, confirmedEpoch: tr.Epoch, reply: make(chan replResult, 1)})
	if err != nil {
		return err
	}
	if res.err != nil {
		// The checker may hold a partially applied epoch that never reached
		// the log; rebuilding from a snapshot is the only safe continuation.
		return fmt.Errorf("%w: %v", errNeedBootstrap, res.err)
	}
	s.nTailRecords.Add(uint64(len(tr.Batches)))
	s.nTailTuples.Add(tuples)
	return nil
}

// bootstrapOnce downloads and installs the leader's newest snapshot, then
// has the worker rebuild its checker from the local store. When the leader's
// newest snapshot is not ahead of what the local store already holds (apply
// failures land here with an intact local log), the download is dropped and
// the rebuild runs from local artifacts alone.
func (s *Server) bootstrapOnce() error {
	s.nSnapFetches.Add(1)
	if _, err := fetchSnapshotCounted(s.replCtx, s.follow.Client, s.follow.URL, s.st, &s.nSnapFetchBytes); err != nil {
		s.nSnapFetchFailures.Add(1)
		return err
	}
	res, err := s.submitRepl(&replJob{reload: true, reply: make(chan replResult, 1)})
	if err != nil {
		return err
	}
	if res.err != nil {
		return res.err
	}
	return nil
}

// submitRepl hands one job to the worker and waits for the result.
func (s *Server) submitRepl(j *replJob) (replResult, error) {
	select {
	case s.repl <- j:
	case <-s.replCtx.Done():
		return replResult{}, ErrShuttingDown
	case <-s.quit:
		return replResult{}, ErrShuttingDown
	}
	select {
	case res := <-j.reply:
		return res, nil
	case <-s.quit:
		// The worker still finishes the job (the reply channel is buffered);
		// we just stop waiting for it.
		return replResult{}, ErrShuttingDown
	}
}

// replSleep waits out a backoff, abandoning it on shutdown.
func (s *Server) replSleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.replCtx.Done():
		return false
	case <-s.quit:
		return false
	}
}

// worker side (called from run(), which owns the checker)

// applyRepl executes one handover on the worker.
func (s *Server) applyRepl(j *replJob) {
	if j.reload {
		j.reply <- s.reloadFromStore()
		return
	}
	j.reply <- s.applyTailed(j.batches, j.confirmedEpoch)
}

// applyTailed applies tailed records the way the leader's applyBatch did:
// all records of one leader epoch merge into one Apply and one local WAL
// record (log-before-advance, so a follower crash leaves whole epochs only),
// the epoch's updates extend the replica pool's version chain, and only then
// does the epoch become visible. A failed apply or append stops at the last
// good epoch and reports the error — the tail loop re-bootstraps, and the
// reload publishes a fresh base.
func (s *Server) applyTailed(batches []store.Batch, confirmed uint64) replResult {
	s.nBatches.Add(1)
	cur := s.epoch.Load()
	for i := 0; i < len(batches); {
		epoch := batches[i].Epoch
		var merged []core.Update
		for ; i < len(batches) && batches[i].Epoch == epoch; i++ {
			merged = append(merged, batches[i].Updates...)
		}
		if epoch <= cur {
			continue // redelivered after a retry; already applied and logged
		}
		applyStart := time.Now()
		applied, err := s.chk.Apply(merged)
		applyCost := time.Since(applyStart)
		s.metrics.stApply.Observe(applyCost)
		if err != nil {
			s.ver = nil // the checker is partly updated: no delta describes it
			return replResult{epoch: cur, err: fmt.Errorf("service: replicating epoch %d: tuple %d/%d: %w", epoch, applied, len(merged), err)}
		}
		s.nUpdateTuples.Add(uint64(applied))
		if err := s.st.AppendBatch(epoch, merged); err != nil {
			s.nWALErrors.Add(1)
			return replResult{epoch: cur, err: fmt.Errorf("service: logging replicated epoch %d: %w", epoch, err)}
		}
		s.publishVersion(epoch, merged, applyCost, false)
		s.epoch.Store(epoch)
		s.epochSig.bump()
		s.maybeSnapshot(epoch)
		cur = epoch
	}
	if confirmed > cur {
		// Leader rounds that applied zero tuples leave no record; the poll
		// response vouches that nothing is missing up to its epoch, so adopt
		// it — convergence stays observable through /statsz.
		s.publishVersion(confirmed, nil, 0, false)
		s.epoch.Store(confirmed)
		s.epochSig.bump()
		cur = confirmed
	}
	s.publish(true)
	return replResult{epoch: cur}
}

// reloadFromStore rebuilds the worker's checker from the local store (fresh
// snapshot plus any WAL tail) and swaps it in, publishing it as a fresh base
// every replica adopts. The old kernel is abandoned wholesale; in-flight
// replica reads finish on the versions they started with.
func (s *Server) reloadFromStore() replResult {
	chk, _, info, err := s.st.Recover(s.coreOpts)
	if err != nil {
		return replResult{err: fmt.Errorf("service: rebuilding from installed snapshot: %w", err)}
	}
	s.chk = chk
	s.batchesSinceSnap = 0
	epoch := info.LastEpoch
	if epoch == 0 {
		epoch = 1
	}
	s.publishVersion(epoch, nil, 0, true)
	s.publish(true)
	s.epoch.Store(epoch)
	s.epochSig.bump()
	return replResult{epoch: epoch}
}

// bootstrap fetch, shared with cmd boot

// FetchSnapshot downloads the leader's newest snapshot into st, verifying
// the stream against the length and CRC the leader declared, and returns its
// epoch. Meant for cold boot: a follower whose data directory has no
// snapshot yet calls this before Recover. When st already holds a snapshot
// at or past the leader's newest, nothing is installed and the held epoch's
// snapshot entry remains authoritative.
func FetchSnapshot(ctx context.Context, hc *http.Client, leaderURL string, st *store.Store) (uint64, error) {
	return fetchSnapshotCounted(ctx, hc, leaderURL, st, nil)
}

func fetchSnapshotCounted(ctx context.Context, hc *http.Client, leaderURL string, st *store.Store, bytesCtr *atomic.Uint64) (uint64, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	url := strings.TrimRight(leaderURL, "/") + "/snapshot/latest"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("leader /snapshot: %s", readErrorBody(resp))
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(HeaderSnapshotEpoch), 10, 64)
	if err != nil || epoch == 0 {
		return 0, fmt.Errorf("leader sent no usable %s header (%q)", HeaderSnapshotEpoch, resp.Header.Get(HeaderSnapshotEpoch))
	}
	crc, err := strconv.ParseUint(resp.Header.Get(HeaderSnapshotCRC), 16, 32)
	if err != nil {
		return 0, fmt.Errorf("leader sent no usable %s header (%q)", HeaderSnapshotCRC, resp.Header.Get(HeaderSnapshotCRC))
	}
	if resp.ContentLength < 0 {
		return 0, fmt.Errorf("leader sent no snapshot content length")
	}
	if epoch <= st.LastSnapshotEpoch() {
		// Nothing newer upstream; the local snapshot stands.
		return epoch, nil
	}
	body := io.Reader(resp.Body)
	if bytesCtr != nil {
		body = &countingReader{r: resp.Body, n: bytesCtr}
	}
	if err := st.InstallSnapshot(body, epoch, resp.ContentLength, uint32(crc)); err != nil {
		return 0, err
	}
	return epoch, nil
}

// countingReader feeds streamed byte counts into a metric counter.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

// readErrorBody condenses a non-200 leader reply into one error string.
func readErrorBody(resp *http.Response) string {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(b))
	if msg == "" {
		return resp.Status
	}
	return resp.Status + ": " + msg
}
