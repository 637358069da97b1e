package difftest

// pool.go holds a long-lived replica against the primary. checkAll freezes a
// fresh replica at every step; production replicas instead live through
// many epochs and reach each one by applying its updates to their own
// checker (replica.Version.Advance and the pool worker's catch-up). The
// pool oracle keeps one replica.Pool worker alive for the whole case,
// publishes every step through that chain, and after each step compares the
// worker's verdict and witness set on every constraint with the primary's.
// Under -reorder every step publishes a fresh base, as the service does
// after a sift; under -follower the chain is published by a follower-side
// checker that bootstrapped from the shipped snapshot and applies each
// shipped batch, as the service's follower does.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/replica"
)

// poolOracle owns the long-lived pool and the checker that publishes to it.
type poolOracle struct {
	// src publishes the chain: the primary itself, or (follower soak) a
	// private follower checker the oracle applies each batch to.
	src      *core.Checker
	follower bool
	ver      *replica.Version
	pool     *replica.Pool
}

// newPoolOracle publishes the initial state as epoch 1 to a one-worker pool.
// With fol set, the chain starts from a checker recovered from the
// follower's bootstrap snapshot instead of from the primary.
func newPoolOracle(primary *core.Checker, fol *followerOracle) (*poolOracle, error) {
	o := &poolOracle{src: primary}
	if fol != nil {
		chk, _, _, err := fol.st.Recover(fol.opts)
		if err != nil {
			return nil, fmt.Errorf("difftest: pool oracle follower bootstrap: %w", err)
		}
		o.src, o.follower = chk, true
	}
	v, err := replica.NewVersion(o.src, 1)
	if err != nil {
		return nil, fmt.Errorf("difftest: pool oracle bootstrap: %w", err)
	}
	if o.pool, err = replica.New(1, v); err != nil {
		return nil, err
	}
	o.ver = v
	return o, nil
}

func (o *poolOracle) close() { o.pool.Close() }

// advance publishes the state after batch as epoch. applyCost is the
// primary's Apply time for the batch (the follower checker's own when it
// publishes); reorder says the primary was just sifted, which the service
// publishes as a fresh base.
func (o *poolOracle) advance(epoch uint64, batch []core.Update, applyCost time.Duration, reorder bool) error {
	if o.follower {
		start := time.Now()
		if _, err := o.src.Apply(batch); err != nil {
			return fmt.Errorf("difftest: follower checker applying epoch %d: %w", epoch, err)
		}
		applyCost = time.Since(start)
	}
	var v *replica.Version
	var err error
	if reorder && !o.follower {
		v, err = replica.NewVersion(o.src, epoch)
	} else {
		v, err = o.ver.Advance(o.src, epoch, batch, applyCost)
	}
	if err != nil {
		return fmt.Errorf("difftest: publishing epoch %d: %w", epoch, err)
	}
	o.ver = v
	o.pool.Publish(v)
	return nil
}

// check holds the pool worker against the primary on every constraint. The
// caller runs it only after checkAll passed, so the primary's answers are
// already known to agree with the SQL baseline.
func (o *poolOracle) check(primary *core.Checker, cts []logic.Constraint, step int) (*Mismatch, error) {
	want := o.ver.Epoch()
	for _, ct := range cts {
		mm := func(kind, format string, args ...interface{}) *Mismatch {
			return &Mismatch{Step: step, Constraint: ct.Name, Kind: kind, Detail: fmt.Sprintf(format, args...)}
		}
		an, err := logic.Analyze(ct.F, primary.Resolver())
		if err != nil {
			return nil, fmt.Errorf("difftest: analyzing %s: %w", ct.Name, err)
		}
		validity := logic.Rewrite(an.F, logic.DefaultRewriteOptions()).Mode == logic.CheckValidity
		pres := primary.CheckOne(ct)
		var rres core.Result
		var rw []core.Witness
		var werr error
		var epoch uint64
		if err := o.pool.Do(context.Background(), func(chk *core.Checker, e uint64) {
			epoch = e
			rres = chk.CheckOneOpts(ct, core.CheckOptions{NoSQLFallback: true})
			if rres.Err == nil && rres.Violated && validity {
				rw, werr = chk.ViolationWitnesses(ct, witnessLimit)
			}
		}); err != nil {
			return mm("pool-error", "long-lived replica could not reach epoch %d: %v", want, err), nil
		}
		if epoch != want {
			return mm("pool-error", "long-lived replica served epoch %d, want %d", epoch, want), nil
		}
		if rres.Err != nil {
			return mm("pool-error", "long-lived replica check failed: %v", rres.Err), nil
		}
		if pres.Violated != rres.Violated {
			return mm("pool-verdict", "primary(%s)=%v long-lived replica=%v after %d batches",
				pres.Method, pres.Violated, rres.Violated, step), nil
		}
		if !pres.Violated || !validity {
			continue
		}
		if werr != nil {
			return mm("witness-error", "long-lived replica witness enumeration failed: %v", werr), nil
		}
		pw, err := primary.ViolationWitnesses(ct, witnessLimit)
		if err != nil {
			return mm("witness-error", "primary witness enumeration failed: %v", err), nil
		}
		if len(pw) >= witnessLimit || len(rw) >= witnessLimit {
			continue // truncated enumerations are not comparable
		}
		if diff := SetDiff(WitnessSet(pw), WitnessSet(rw)); diff != "" {
			return mm("pool-witnesses", "primary vs long-lived replica: %s (primary %d, replica %d)", diff, len(pw), len(rw)), nil
		}
	}
	return nil, nil
}
