package main

// replay.go times calls into the program's layers from the benchmark's own
// code, on a checker of its own built from the same inputs: logic.Parse on
// the request texts, core.Checker.InsertTuple/DeleteTuple over the churn
// batch stream, sqlengine through ViolatingRows, and the per-operation
// cache hit rates of the kernel the replayed checks ran on.

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func ownChecker(base *relation.Catalog, indices []indexSpec) (*core.Checker, error) {
	chk := core.New(base.Clone(), core.Options{NodeBudget: core.DefaultNodeBudget})
	for _, ix := range indices {
		if _, err := chk.BuildIndex(ix.Name, ix.Table, ix.Cols, core.OrderProbConverge); err != nil {
			return nil, err
		}
	}
	return chk, nil
}

func parseAll(texts []string) ([]logic.Constraint, error) {
	var out []logic.Constraint
	for _, t := range texts {
		cts, err := logic.ParseConstraints(t)
		if err != nil {
			return nil, err
		}
		out = append(out, cts...)
	}
	return out, nil
}

// timeSQL is the mean time of ViolatingRows over cts, within the replay
// budget (at least one call).
func timeSQL(chk *core.Checker, cts []logic.Constraint) float64 {
	var ms []float64
	start := time.Now()
	for _, ct := range cts {
		if len(ms) > 0 && time.Since(start) > replayBudget {
			break
		}
		t0 := time.Now()
		if _, err := chk.ViolatingRows(ct); err != nil {
			continue
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return mean(ms)
}

func replayTable1(base *relation.Catalog, indices []indexSpec, tw *table1Workload) (replayResult, error) {
	var rp replayResult
	qs := tw.tracedTexts
	if len(qs) > 200 {
		qs = qs[:200]
	}
	texts := make([]string, len(qs))
	var violated []string
	for i, q := range qs {
		texts[i] = q.Text
		if tw.oracle.violated(q) && len(violated) < 10 {
			violated = append(violated, q.Text)
		}
	}
	rp.ParseUS = timeParse(texts)
	cts, err := parseAll(texts)
	if err != nil {
		return rp, err
	}
	chk, err := ownChecker(base, indices)
	if err != nil {
		return rp, err
	}
	rp.HitApply, rp.HitQuant, rp.HitReplace = hitRates(chk, func() {
		start := time.Now()
		for _, ct := range cts {
			if time.Since(start) > replayBudget {
				break
			}
			chk.CheckOne(ct)
		}
	})
	vcts, err := parseAll(violated)
	if err != nil {
		return rp, err
	}
	rp.SQLWitnessMS = timeSQL(chk, vcts)
	return rp, nil
}

func replayCust(base *relation.Catalog, indices []indexSpec, cw *custWorkload, regTexts []string) (replayResult, error) {
	var rp replayResult
	rp.ParseUS = timeParse(regTexts)
	cts, err := parseAll(regTexts)
	if err != nil {
		return rp, err
	}
	byName := map[string]logic.Constraint{}
	for _, ct := range cts {
		byName[ct.Name] = ct
	}
	chk, err := ownChecker(base, indices)
	if err != nil {
		return rp, err
	}
	if cw.mode == modeMonitor {
		rp.HitApply, rp.HitQuant, rp.HitReplace = hitRates(chk, func() {
			start := time.Now()
			for i := 0; time.Since(start) < replayBudget; i++ {
				chk.CheckOne(byName[cw.names[i%len(cw.names)]])
			}
		})
		var targets []logic.Constraint
		for _, n := range cw.witnessTargets {
			if cw.oracle.violated(n) {
				targets = append(targets, byName[n])
			}
		}
		rp.SQLWitnessMS = timeSQL(chk, targets)
		return rp, nil
	}
	// Replay the batch stream from the initial state, timing each tuple's
	// index maintenance; one check of the rotation follows every batch,
	// as the checking client's would.
	var ins, del []float64
	start := time.Now()
	rp.HitApply, rp.HitQuant, rp.HitReplace = hitRates(chk, func() {
		for b, batch := range cw.batches {
			if time.Since(start) > replayBudget {
				break
			}
			for _, u := range batch {
				t0 := time.Now()
				var err error
				if u.Op == "insert" {
					err = chk.InsertTuple(u.Table, u.Values...)
				} else {
					err = chk.DeleteTuple(u.Table, u.Values...)
				}
				us := float64(time.Since(t0).Nanoseconds()) / 1e3
				if err != nil {
					continue
				}
				if u.Op == "insert" {
					ins = append(ins, us)
				} else {
					del = append(del, us)
				}
			}
			chk.CheckOne(byName[cw.names[b%len(cw.names)]])
		}
	})
	rp.InsertUS, rp.DeleteUS = mean(ins), mean(del)
	return rp, nil
}
