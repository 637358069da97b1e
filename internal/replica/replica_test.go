package replica_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/replica"
)

const testRules = `
	constraint nj_codes:
	    forall c, a: CUST(c, a, "NJ") => a in {"201", "973", "908"}.
`

func newPrimary(t *testing.T) (*core.Checker, logic.Constraint) {
	t.Helper()
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{
		{Name: "city"}, {Name: "areacode"}, {Name: "state"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]string{
		{"Toronto", "416", "Ontario"},
		{"Oshawa", "905", "Ontario"},
		{"Newark", "973", "NJ"},
	} {
		cust.Insert(row...)
	}
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("CUST", "CUST", nil, core.OrderProbConverge); err != nil {
		t.Fatal(err)
	}
	cts, err := logic.ParseConstraints(testRules)
	if err != nil {
		t.Fatal(err)
	}
	return chk, cts[0]
}

func TestVersionIsFrozenAgainstPrimaryWrites(t *testing.T) {
	primary, ct := newPrimary(t)
	v, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(1, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Violate the constraint on the primary after freezing.
	if err := primary.InsertTuple("CUST", "Newark", "416", "NJ"); err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := pool.Do(context.Background(), func(chk *core.Checker, epoch uint64) {
		if epoch != 1 {
			t.Errorf("epoch = %d, want 1", epoch)
		}
		res = chk.CheckOneOpts(ct, core.CheckOptions{NoSQLFallback: true})
	}); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Violated {
		t.Fatalf("replica at epoch 1 must not see the later write: %+v", res)
	}
	if !primary.CheckOne(ct).Violated {
		t.Fatal("primary must see its own write")
	}

	// After publishing a fresh version the next job sees the write.
	v2, err := replica.NewVersion(primary, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.Publish(v2)
	if err := pool.Do(context.Background(), func(chk *core.Checker, epoch uint64) {
		if epoch != 2 {
			t.Errorf("epoch = %d, want 2", epoch)
		}
		res = chk.CheckOneOpts(ct, core.CheckOptions{NoSQLFallback: true})
	}); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || !res.Violated {
		t.Fatalf("replica at epoch 2 must see the write: %+v", res)
	}
}

// TestConcurrentChecksThroughEpochHandoffs is the -race acceptance test: a
// single owner goroutine keeps mutating the primary and publishing new
// versions while concurrent readers drive ≥ 2 replicas through several
// epoch handoffs. Every observed result must be consistent with some
// published epoch: the constraint is violated exactly at odd epochs.
func TestConcurrentChecksThroughEpochHandoffs(t *testing.T) {
	primary, ct := newPrimary(t)
	v, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	pool, err := replica.New(workers, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Size() != workers {
		t.Fatalf("pool size %d, want %d", pool.Size(), workers)
	}

	// Epoch e > 1 is published after toggling the violating tuple: present
	// (violated) when e is even, absent when odd. Epoch 1 is clean.
	violatedAt := func(epoch uint64) bool { return epoch%2 == 0 }

	var epochsSeen sync.Map
	var checks atomic.Uint64
	check := func(chk *core.Checker, epoch uint64) {
		res := chk.CheckOneOpts(ct, core.CheckOptions{NoSQLFallback: true})
		if res.Err != nil {
			t.Errorf("replica check at epoch %d: %v", epoch, res.Err)
			return
		}
		if res.Violated != violatedAt(epoch) {
			t.Errorf("epoch %d: violated=%v, want %v", epoch, res.Violated, violatedAt(epoch))
		}
		epochsSeen.Store(epoch, true)
		checks.Add(1)
	}

	// The owner: toggle the violation, freeze, publish — 8 handoffs. Each
	// round launches a bounded burst of concurrent readers *before*
	// publishing, so in-flight reads race the handoff, then confirms the
	// epoch once the burst drains. Readers are bounded rather than
	// free-running: unbounded resubmission loops can starve the owner for
	// minutes on a single CPU (the real write path never has this problem —
	// it only Publishes, which is wait-free).
	for epoch := uint64(2); epoch <= 9; epoch++ {
		if violatedAt(epoch) {
			if err := primary.InsertTuple("CUST", "Newark", "416", "NJ"); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := primary.DeleteTuple("CUST", "Newark", "416", "NJ"); err != nil {
				t.Fatal(err)
			}
		}
		nv, err := replica.NewVersion(primary, epoch)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					if err := pool.Do(context.Background(), check); err != nil {
						t.Errorf("Do: %v", err)
						return
					}
				}
			}()
		}
		pool.Publish(nv) // races the burst above
		wg.Wait()
		// The queue has drained, so a fresh job cannot starve; it was
		// submitted after Publish, so the worker swaps before running it.
		if err := pool.Do(context.Background(), func(chk *core.Checker, got uint64) {
			if got < epoch {
				t.Errorf("job submitted after publish of epoch %d ran at %d", epoch, got)
			}
			check(chk, got)
		}); err != nil {
			t.Fatal(err)
		}
	}

	if pool.Epoch() != 9 {
		t.Fatalf("pool epoch %d, want 9", pool.Epoch())
	}
	var distinct int
	epochsSeen.Range(func(_, _ any) bool { distinct++; return true })
	// The owner waited for each of epochs 2-9 to be observed.
	if distinct < 8 {
		t.Fatalf("saw %d distinct epochs, want ≥ 8", distinct)
	}
	if pool.Swaps() < 2 {
		t.Fatalf("swaps = %d, want ≥ 2 (both workers must have materialized)", pool.Swaps())
	}
	stats := pool.Stats()
	if len(stats) != workers {
		t.Fatalf("got %d worker stats, want %d", len(stats), workers)
	}
	var jobs uint64
	for _, s := range stats {
		jobs += s.Jobs
		if s.Jobs > 0 && s.Kernel.Live < 2 {
			t.Fatalf("worker %d served %d jobs with an empty kernel", s.Worker, s.Jobs)
		}
	}
	if jobs < checks.Load() {
		t.Fatalf("worker stats count %d jobs, checkers completed %d", jobs, checks.Load())
	}
	t.Logf("%d checks across %d epochs, %d swaps", checks.Load(), distinct, pool.Swaps())
}

func TestPoolClose(t *testing.T) {
	primary, _ := newPrimary(t)
	v, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(2, v)
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	pool.Close() // idempotent
	if err := pool.Do(context.Background(), func(*core.Checker, uint64) {}); !errors.Is(err, replica.ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
}

func TestDoRespectsContext(t *testing.T) {
	primary, _ := newPrimary(t)
	v, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(1, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Occupy the single worker, then submit with a canceled context: Do
	// must return promptly — either the job slipped into the queue (nil
	// after release) or submission observed the cancellation.
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool.Do(context.Background(), func(*core.Checker, uint64) {
			close(started)
			<-release
		})
	}()
	<-started
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errCh <- pool.Do(ctx, func(*core.Checker, uint64) {})
		}()
	}
	close(release)
	wg.Wait()
	var canceled int
	for i := 0; i < 8; i++ {
		if err := <-errCh; err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Do = %v, want context.Canceled or success", err)
			}
			canceled++
		}
	}
	// The queue holds 2 entries for a 1-worker pool, so with 8 canceled
	// submissions against a blocked worker some must take the ctx branch.
	if canceled == 0 {
		t.Log("no submission observed the canceled context (queue drained fast); still no deadlock")
	}
}

// njToggle is the update that makes testRules violated (insert) or holding
// again (delete).
func njToggle(op core.UpdateOp) []core.Update {
	return []core.Update{{Table: "CUST", Op: op, Values: []string{"Newark", "416", "NJ"}}}
}

// advance applies ups to the primary and extends the chain by them.
func advance(t *testing.T, primary *core.Checker, v *replica.Version, epoch uint64, ups []core.Update, cost time.Duration) *replica.Version {
	t.Helper()
	if _, err := primary.Apply(ups); err != nil {
		t.Fatal(err)
	}
	nv, err := v.Advance(primary, epoch, ups, cost)
	if err != nil {
		t.Fatal(err)
	}
	return nv
}

// checkAt runs the constraint on the pool and returns the verdict, failing
// the test unless the job ran at epoch want.
func checkAt(t *testing.T, pool *replica.Pool, ct logic.Constraint, want uint64) bool {
	t.Helper()
	var res core.Result
	var got uint64
	if err := pool.Do(context.Background(), func(chk *core.Checker, epoch uint64) {
		got = epoch
		res = chk.CheckOneOpts(ct, core.CheckOptions{NoSQLFallback: true})
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("job ran at epoch %d, want %d", got, want)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.Violated
}

// TestWarmReplicaCatchesUpByDeltas: a worker that holds a checker reaches
// newer epochs by applying their updates, without adopting a base again,
// and the chain's rebases do not force it to re-adopt either.
func TestWarmReplicaCatchesUpByDeltas(t *testing.T) {
	primary, ct := newPrimary(t)
	v, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(1, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if checkAt(t, pool, ct, 1) {
		t.Fatal("epoch 1 must hold")
	}
	for epoch := uint64(2); epoch <= 9; epoch++ {
		op, cost := core.UpdateDelete, time.Duration(0)
		if epoch%2 == 0 {
			op = core.UpdateInsert
		}
		if epoch%3 == 0 {
			cost = time.Hour // past any freeze time: this version rebases
		}
		v = advance(t, primary, v, epoch, njToggle(op), cost)
		pool.Publish(v)
		if got := checkAt(t, pool, ct, epoch); got != (epoch%2 == 0) {
			t.Fatalf("epoch %d: violated=%v", epoch, got)
		}
	}
	if got := pool.Adoptions(); got != 1 {
		t.Fatalf("adoptions = %d, want 1 (the first materialization only)", got)
	}
	if got := pool.CatchupTuples(); got != 8 {
		t.Fatalf("catch-up tuples = %d, want 8", got)
	}
	if got := pool.Swaps(); got != 9 {
		t.Fatalf("swaps = %d, want 9", got)
	}

	// A cold pool over the same chain adopts the latest base (frozen at the
	// epoch-9 rebase) and replays nothing.
	cold, err := replica.New(1, v)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if checkAt(t, cold, ct, 9) {
		t.Fatal("epoch 9 must hold on a cold replica")
	}
	if cold.Adoptions() != 1 || cold.CatchupTuples() != 0 {
		t.Fatalf("cold pool: adoptions %d, catch-up tuples %d; want 1 and 0", cold.Adoptions(), cold.CatchupTuples())
	}
}

// TestColdReplicaReplaysChainFromBase: a worker materializing after several
// delta-only versions adopts the base and replays every update since it.
func TestColdReplicaReplaysChainFromBase(t *testing.T) {
	primary, ct := newPrimary(t)
	v, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	v = advance(t, primary, v, 2, njToggle(core.UpdateInsert), 0)
	v = advance(t, primary, v, 3, njToggle(core.UpdateDelete), 0)
	v = advance(t, primary, v, 4, njToggle(core.UpdateInsert), 0)
	pool, err := replica.New(1, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if !checkAt(t, pool, ct, 4) {
		t.Fatal("epoch 4 must be violated")
	}
	if pool.Adoptions() != 1 || pool.CatchupTuples() != 3 {
		t.Fatalf("adoptions %d, catch-up tuples %d; want 1 and 3", pool.Adoptions(), pool.CatchupTuples())
	}
}

// TestFailedCatchUpNeverServesStale is the read-your-writes regression: when
// a worker cannot reach the latest version, the job fails (the service then
// reroutes it to the primary) instead of running on the older version the
// worker still holds, which would hide an acknowledged update.
func TestFailedCatchUpNeverServesStale(t *testing.T) {
	primary, ct := newPrimary(t)
	v1, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(1, v1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if checkAt(t, pool, ct, 1) {
		t.Fatal("epoch 1 must hold")
	}
	// Epoch 2 carries an update no replica can apply (the tuple is not in
	// the table): both the delta catch-up and the re-adoption from the base
	// fail.
	bad, err := v1.Advance(primary, 2, []core.Update{{Table: "CUST", Op: core.UpdateDelete, Values: []string{"Oshawa", "416", "NJ"}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Publish(bad)
	ran := false
	err = pool.Do(context.Background(), func(*core.Checker, uint64) { ran = true })
	if err == nil || ran {
		t.Fatalf("Do = %v (job ran: %v); want a catch-up error and no run at the stale epoch", err, ran)
	}
	// A good version published over a fresh base brings the worker back.
	if err := primary.InsertTuple("CUST", "Newark", "416", "NJ"); err != nil {
		t.Fatal(err)
	}
	v3, err := replica.NewVersion(primary, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool.Publish(v3)
	if !checkAt(t, pool, ct, 3) {
		t.Fatal("epoch 3 must be violated")
	}
}

// TestChainTrimmedBehindPreviousBase: each rebase cuts the chain behind the
// previous base, so a worker idle for longer than that no longer finds its
// version on the chain and re-adopts.
func TestChainTrimmedBehindPreviousBase(t *testing.T) {
	primary, ct := newPrimary(t)
	v, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(1, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	checkAt(t, pool, ct, 1)
	// Two rebases: the second cuts the chain behind the first, which is
	// past the worker's epoch 1.
	v = advance(t, primary, v, 2, njToggle(core.UpdateInsert), time.Hour)
	v = advance(t, primary, v, 3, njToggle(core.UpdateDelete), time.Hour)
	pool.Publish(v)
	if checkAt(t, pool, ct, 3) {
		t.Fatal("epoch 3 must hold")
	}
	if pool.Adoptions() != 2 {
		t.Fatalf("adoptions = %d, want 2 (the worker fell off the trimmed chain)", pool.Adoptions())
	}
}
