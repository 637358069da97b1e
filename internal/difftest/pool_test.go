package difftest

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/replica"
)

// answer is one constraint's verdict and canonical witness set at an epoch;
// witnesses is nil when the constraint holds, is an existence check, or the
// enumeration was truncated.
type answer struct {
	violated  bool
	witnesses map[string]bool
}

// observation is one check a reader ran on the pool.
type observation struct {
	epoch uint64
	ct    int
	got   answer
	err   error
}

func answerOf(chk *core.Checker, ct logic.Constraint, opts core.CheckOptions, validity bool) (answer, error) {
	res := chk.CheckOneOpts(ct, opts)
	if res.Err != nil {
		return answer{}, res.Err
	}
	a := answer{violated: res.Violated}
	if res.Violated && validity {
		ws, err := chk.ViolationWitnesses(ct, witnessLimit)
		if err != nil {
			return answer{}, err
		}
		if len(ws) < witnessLimit {
			a.witnesses = WitnessSet(ws)
		}
	}
	return a, nil
}

// inverse undoes batch: its updates in reverse order, inserts and deletes
// swapped.
func inverse(batch []core.Update) []core.Update {
	out := make([]core.Update, len(batch))
	for i, u := range batch {
		if u.Op == core.UpdateInsert {
			u.Op = core.UpdateDelete
		} else {
			u.Op = core.UpdateInsert
		}
		out[len(batch)-1-i] = u
	}
	return out
}

// TestLongLivedReplicaRace is the -race test of delta catch-up: for a few
// generated cases, a four-worker pool serves concurrent checks while the
// owner applies update batches to the primary and publishes each through
// the version chain, every third version forced to rebase. The case's
// batches are applied and undone three times over, so a case with one
// batch runs seven epochs. Every answer a worker gives at epoch e must equal
// the primary's at e, witnesses included.
func TestLongLivedReplicaRace(t *testing.T) {
	const workers, readers = 4, 4
	for seed := int64(0); seed < 8; seed++ {
		c := GenerateCase(RNGChooser{Rand: rand.New(rand.NewSource(soakBase + seed))})
		var steps [][]core.Update
		for rep := 0; rep < 3; rep++ {
			steps = append(steps, c.Updates...)
			for i := len(c.Updates) - 1; i >= 0; i-- {
				steps = append(steps, inverse(c.Updates[i]))
			}
		}
		if len(steps) == 0 {
			continue
		}
		primary, cts, err := buildCase(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		validity := make([]bool, len(cts))
		for i, ct := range cts {
			an, err := logic.Analyze(ct.F, primary.Resolver())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			validity[i] = logic.Rewrite(an.F, logic.DefaultRewriteOptions()).Mode == logic.CheckValidity
		}
		// want[e][i] is the primary's answer on cts[i] at epoch e, recorded
		// by the owner before it publishes e.
		want := map[uint64][]answer{}
		record := func(epoch uint64) {
			as := make([]answer, len(cts))
			for i, ct := range cts {
				var err error
				if as[i], err = answerOf(primary, ct, core.CheckOptions{}, validity[i]); err != nil {
					t.Fatalf("seed %d epoch %d: primary: %v", seed, epoch, err)
				}
			}
			want[epoch] = as
		}
		record(1)
		v, err := replica.NewVersion(primary, 1)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := replica.New(workers, v)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var seen []observation
		burst := func(wg *sync.WaitGroup, r int) {
			defer wg.Done()
			for k := 0; k < 2*len(cts); k++ {
				i := (r + k) % len(cts)
				var o observation
				err := pool.Do(context.Background(), func(chk *core.Checker, epoch uint64) {
					o.epoch, o.ct = epoch, i
					o.got, o.err = answerOf(chk, cts[i], core.CheckOptions{NoSQLFallback: true}, validity[i])
				})
				if err != nil {
					o.err = err
				}
				mu.Lock()
				seen = append(seen, o)
				mu.Unlock()
			}
		}
		for step, batch := range steps {
			epoch := uint64(step) + 2
			if _, err := primary.Apply(batch); err != nil {
				t.Fatalf("seed %d: applying batch %d: %v", seed, step+1, err)
			}
			record(epoch)
			cost := time.Duration(0)
			if step%3 == 2 {
				cost = time.Hour // forces this version to freeze a new base
			}
			// Readers race the publication: they may run at the old epoch
			// or the new one, never at anything else.
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go burst(&wg, r)
			}
			if v, err = v.Advance(primary, epoch, batch, cost); err != nil {
				t.Fatal(err)
			}
			pool.Publish(v)
			wg.Wait()
		}
		pool.Close()
		for _, o := range seen {
			if o.err != nil {
				t.Fatalf("seed %d: replica check of %s at epoch %d: %v", seed, cts[o.ct].Name, o.epoch, o.err)
			}
			w, ok := want[o.epoch]
			if !ok {
				t.Fatalf("seed %d: replica answered at unpublished epoch %d", seed, o.epoch)
			}
			if o.got.violated != w[o.ct].violated {
				t.Fatalf("seed %d epoch %d %s: replica violated=%v, primary %v",
					seed, o.epoch, cts[o.ct].Name, o.got.violated, w[o.ct].violated)
			}
			if o.got.witnesses != nil && w[o.ct].witnesses != nil {
				if diff := SetDiff(w[o.ct].witnesses, o.got.witnesses); diff != "" {
					t.Fatalf("seed %d epoch %d %s: witnesses primary vs replica: %s", seed, o.epoch, cts[o.ct].Name, diff)
				}
			}
		}
		t.Logf("seed %d: %d checks over %d epochs, %d adoptions, %d catch-up tuples",
			seed, len(seen), len(steps)+1, pool.Adoptions(), pool.CatchupTuples())
	}
}
