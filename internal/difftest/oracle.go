package difftest

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sqlengine"
)

// oracle.go runs one case through the three production evaluation paths and
// compares them:
//
//   - primary: the BDD evaluator (plus FD fast path) on the kernel that owns
//     the live indices, node budget unlimited so nothing degrades to SQL;
//   - sql: the sqlengine.Compile violation query on the same catalog — the
//     baseline the paper's indices claim to replace exactly;
//   - replica: a fresh checker adopting the primary's index roots through
//     core.SnapshotIndices / bdd.CopyTo, checked with the SQL fallback
//     disabled so only the copied BDDs decide.
//
// Verdicts must agree three ways on every constraint; when the constraint is
// a violated validity check, the witness sets must agree too (primary vs
// replica exactly; primary vs sql after projecting onto the variables both
// sides bind, since prenexing can fold deeper universals into the BDD's
// leading block that the SQL compiler leaves quantified). Each update batch
// is applied through the incremental maintenance path and the whole
// comparison repeats against a freshly frozen replica, and against a
// long-lived replica that catches up by applying the batch (pool.go).

// witnessLimit bounds witness enumeration; a truncated enumeration is not
// compared (the two engines may truncate different subsets).
const witnessLimit = 10000

// DebugChecks makes the harness enable bdd.Kernel runtime Ref validation
// (Config.DebugChecks) on the primary and on every frozen replica, so a soak
// run doubles as a hunt for use-after-GC and cross-kernel handle bugs. The
// difftest suite's -debugchecks flag sets it.
var DebugChecks bool

// ForceReorder makes RunCase run a full sifting pass (core.Checker.Reorder)
// on the primary kernel after the initial index build and again after every
// update batch — far more often than the production growth trigger ever
// would — so every three-way comparison, every replica freeze and every
// witness enumeration runs against a freshly reordered kernel. Any verdict
// or witness divergence then implicates the reordering engine. The difftest
// suite's -reorder flag sets it.
var ForceReorder bool

// Mismatch describes one oracle disagreement. It is a test failure in
// waiting: the shrinker minimizes the case around it and the corpus writer
// persists it.
type Mismatch struct {
	// Step is 0 for the initial load, i for the state after update batch i
	// (1-based).
	Step int
	// Constraint names the disagreeing constraint within the case.
	Constraint string
	// Kind classifies the disagreement: "verdict" and "witnesses" for
	// value-level divergence, or "primary-error" / "sql-error" /
	// "replica-error" / "witness-error" when one engine fails outright on a
	// constraint that analyzes cleanly against the schema (the other
	// engines' ability to answer makes the failure itself a divergence).
	Kind string
	// Detail is a human-readable account, including the brute-force
	// referee's verdict on who is wrong.
	Detail string
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("step %d, constraint %s: %s mismatch: %s", m.Step, m.Constraint, m.Kind, m.Detail)
}

// RunCase builds the case and runs the full three-way comparison, including
// the update path. It returns a non-nil *Mismatch if the oracles disagree,
// and a non-nil error only for hard harness failures (unparseable
// constraint, index build failure, evaluator error) — the distinction
// matters to the shrinker, which must not mistake a candidate that broke
// the harness for one that still reproduces a divergence.
func RunCase(c *Case) (*Mismatch, error) {
	primary, cts, err := buildCase(c)
	if err != nil {
		return nil, err
	}
	if ForceReorder {
		primary.Reorder(bdd.ReorderOptions{})
	}
	if mm, err := checkAll(primary, cts, 0); mm != nil || err != nil {
		return mm, err
	}
	var fol *followerOracle
	if FollowerSoak {
		if fol, err = newFollowerOracle(primary, cts); err != nil {
			return nil, err
		}
		defer fol.close()
		if mm, err := fol.check(primary, cts, 0); mm != nil || err != nil {
			return mm, err
		}
	}
	lr, err := newPoolOracle(primary, fol)
	if err != nil {
		return nil, err
	}
	defer lr.close()
	if mm, err := lr.check(primary, cts, 0); mm != nil || err != nil {
		return mm, err
	}
	var shardO *shardOracle
	if ShardSoak > 0 {
		if shardO, err = newShardOracle(c, cts); err != nil {
			return nil, err
		}
		defer shardO.close()
		if mm, err := shardO.check(primary, 0); mm != nil || err != nil {
			return mm, err
		}
	}
	for i, batch := range c.Updates {
		applyStart := time.Now()
		if _, err := primary.Apply(batch); err != nil {
			return nil, fmt.Errorf("difftest: applying batch %d: %w", i+1, err)
		}
		applyCost := time.Since(applyStart)
		if ForceReorder {
			primary.Reorder(bdd.ReorderOptions{})
		}
		if mm, err := checkAll(primary, cts, i+1); mm != nil || err != nil {
			return mm, err
		}
		// Batch i+1 lands at epoch i+2; epoch 1 is the initial load.
		if err := lr.advance(uint64(i)+2, batch, applyCost, ForceReorder); err != nil {
			return nil, err
		}
		if mm, err := lr.check(primary, cts, i+1); mm != nil || err != nil {
			return mm, err
		}
		if fol != nil {
			// Ship the batch the way the leader's WAL would carry it (epoch
			// 1 is the bootstrap snapshot; batch i+1 lands at epoch i+2) and
			// re-prove the follower against the primary.
			if err := fol.ship(uint64(i)+2, batch); err != nil {
				return nil, fmt.Errorf("difftest: shipping batch %d: %w", i+1, err)
			}
			if mm, err := fol.check(primary, cts, i+1); mm != nil || err != nil {
				return mm, err
			}
		}
		if shardO != nil {
			// Route the same batch through the coordinator's fan-out and
			// re-prove the sharded answers against the primary.
			if err := shardO.apply(batch); err != nil {
				return nil, fmt.Errorf("difftest: shard coordinator applying batch %d: %w", i+1, err)
			}
			if mm, err := shardO.check(primary, i+1); mm != nil || err != nil {
				return mm, err
			}
		}
	}
	return nil, nil
}

// buildCase builds the case's catalog, indexes every table under its own
// name on a primary with an unlimited node budget, and parses the
// constraints.
func buildCase(c *Case) (*core.Checker, []logic.Constraint, error) {
	method, err := core.ParseOrderingMethod(c.Ordering)
	if err != nil {
		return nil, nil, fmt.Errorf("difftest: %w", err)
	}
	cat, err := c.Build()
	if err != nil {
		return nil, nil, err
	}
	// An empty dictionary cannot become a BDD block (fdd panics on size-0
	// domains); the generator always interns values, but shrink candidates
	// can strip a domain bare. Reject such cases as hard errors.
	for _, ts := range c.Tables {
		t := cat.Table(ts.Name)
		for i := 0; i < t.NumCols(); i++ {
			if t.ColumnDomain(i).Size() == 0 {
				return nil, nil, fmt.Errorf("difftest: table %s column %d has an empty dictionary", ts.Name, i)
			}
		}
	}
	primary := core.New(cat, core.Options{NodeBudget: -1, RandomSeed: c.Seed})
	if DebugChecks {
		primary.Store().Kernel().SetDebugChecks(true)
	}
	for _, ts := range c.Tables {
		// The index carries the table's name: the evaluator resolves a
		// predicate to the index of the same name, and nil cols means the
		// full column set.
		if _, err := primary.BuildIndex(ts.Name, ts.Name, nil, method); err != nil {
			return nil, nil, fmt.Errorf("difftest: building index for %s: %w", ts.Name, err)
		}
	}
	cts := make([]logic.Constraint, len(c.Constraints))
	for i, cs := range c.Constraints {
		f, err := logic.Parse(cs.Source)
		if err != nil {
			return nil, nil, fmt.Errorf("difftest: parsing %s: %w", cs.Name, err)
		}
		cts[i] = logic.Constraint{Name: cs.Name, F: f}
	}
	return primary, cts, nil
}

// freeze snapshots the primary into a fresh read replica, the same pattern
// internal/replica.NewVersion uses for the production read pool.
func freeze(primary *core.Checker) (*core.Checker, error) {
	rep := core.New(primary.Catalog().Clone(), primary.Options())
	if DebugChecks {
		rep.Store().Kernel().SetDebugChecks(true)
	}
	if err := rep.AdoptIndices(primary.Store().Kernel(), primary.SnapshotIndices()); err != nil {
		return nil, fmt.Errorf("difftest: freezing replica: %w", err)
	}
	return rep, nil
}

func checkAll(primary *core.Checker, cts []logic.Constraint, step int) (*Mismatch, error) {
	rep, err := freeze(primary)
	if err != nil {
		return nil, err
	}
	for _, ct := range cts {
		if mm, err := checkConstraint(primary, rep, ct, step); mm != nil || err != nil {
			return mm, err
		}
	}
	return nil, nil
}

func checkConstraint(primary, rep *core.Checker, ct logic.Constraint, step int) (*Mismatch, error) {
	// A constraint that does not analyze against the schema is a harness
	// defect (or a shrink candidate that cut a referenced table), never an
	// engine divergence: reject it as a hard error so the shrinker cannot
	// "minimize" a real bug into a dangling reference.
	an, err := logic.Analyze(ct.F, primary.Resolver())
	if err != nil {
		return nil, fmt.Errorf("difftest: analyzing %s: %w", ct.Name, err)
	}
	mm := func(kind, format string, args ...interface{}) *Mismatch {
		return &Mismatch{Step: step, Constraint: ct.Name, Kind: kind, Detail: fmt.Sprintf(format, args...)}
	}
	pres := primary.CheckOne(ct)
	if pres.Err != nil || pres.FellBack {
		// Budget is unlimited and every table is indexed, so any failure —
		// including a silent degrade to the SQL fallback, which would make
		// this comparison SQL-vs-SQL — is an evaluator bug.
		reason := pres.Err
		if reason == nil {
			reason = pres.FallbackReason
		}
		return mm("primary-error", "primary BDD check failed: %v; brute referee: holds=%v", reason, bruteHolds(an)), nil
	}
	q, err := sqlengine.Compile(ct, primary.Resolver())
	if err != nil {
		return mm("sql-error", "SQL compile failed: %v; brute referee: holds=%v", err, bruteHolds(an)), nil
	}
	sqlViolated, sqlRows, err := q.Run()
	if err != nil {
		return mm("sql-error", "SQL run failed: %v; brute referee: holds=%v", err, bruteHolds(an)), nil
	}
	rres := rep.CheckOneOpts(ct, core.CheckOptions{NoSQLFallback: true})
	if rres.Err != nil {
		return mm("replica-error", "replica check failed: %v; brute referee: holds=%v", rres.Err, bruteHolds(an)), nil
	}
	if pres.Violated != sqlViolated || pres.Violated != rres.Violated {
		return mm("verdict", "primary(%s)=%v sql=%v replica=%v; brute referee: holds=%v",
			pres.Method, pres.Violated, sqlViolated, rres.Violated, bruteHolds(an)), nil
	}
	if !pres.Violated {
		return nil, nil
	}
	// Witness comparison only applies to validity checks: existence checks
	// (a leading ∃ after prenexing) have no per-binding witnesses.
	if logic.Rewrite(an.F, logic.DefaultRewriteOptions()).Mode != logic.CheckValidity {
		return nil, nil
	}
	pw, err := primary.ViolationWitnesses(ct, witnessLimit)
	if err != nil {
		return mm("witness-error", "primary witness enumeration failed: %v", err), nil
	}
	rw, err := rep.ViolationWitnesses(ct, witnessLimit)
	if err != nil {
		return mm("witness-error", "replica witness enumeration failed: %v", err), nil
	}
	if len(pw) >= witnessLimit || len(rw) >= witnessLimit {
		return nil, nil // truncated enumerations are not comparable
	}
	// Primary vs replica: the adopted BDDs must yield the same set exactly.
	ps, rs := witnessSet(pw), witnessSet(rw)
	if diff := setDiff(ps, rs); diff != "" {
		return mm("witnesses", "primary vs replica: %s (primary %d, replica %d)", diff, len(pw), len(rw)), nil
	}
	// Primary vs SQL: project both sides onto the variables they share.
	// Ambiguous base names (two stripped variables recovering the same
	// source name) make the projection ill-defined; skip those.
	if len(pw) > 0 && sqlRows != nil {
		bddVars := pw[0].Vars
		sqlVars := make([]string, len(sqlRows.Vars))
		for i, v := range sqlRows.Vars {
			sqlVars[i] = logic.BaseName(v)
		}
		if !hasDup(bddVars) && !hasDup(sqlVars) {
			common := intersect(bddVars, sqlVars)
			bp := make(map[string]bool)
			for _, w := range pw {
				bp[projectWitness(common, w.Vars, w.Values)] = true
			}
			sp := make(map[string]bool)
			for i := 0; i < sqlRows.Len(); i++ {
				sp[projectWitness(common, sqlVars, sqlRows.Decode(i))] = true
			}
			if diff := setDiff(bp, sp); diff != "" {
				return mm("witnesses", "primary vs sql on common vars %v: %s (primary %d, sql %d rows)",
					common, diff, len(pw), sqlRows.Len()), nil
			}
		}
	}
	return nil, nil
}

// WitnessSet canonicalizes witnesses into a set of "var=val,…" keys,
// order-independent on both the witness list and the variable order. Other
// suites (the durability round-trip property test) reuse it to compare
// witness sets across checkers.
func WitnessSet(ws []core.Witness) map[string]bool { return witnessSet(ws) }

// SetDiff describes the first few asymmetric elements of two WitnessSet
// results, or "" when they are equal.
func SetDiff(a, b map[string]bool) string { return setDiff(a, b) }

// witnessSet canonicalizes witnesses into a set of "var=val,…" keys.
func witnessSet(ws []core.Witness) map[string]bool {
	out := make(map[string]bool, len(ws))
	for _, w := range ws {
		out[projectWitness(w.Vars, w.Vars, w.Values)] = true
	}
	return out
}

// projectWitness renders the binding restricted to keep, sorted by variable
// name so keys are order-independent.
func projectWitness(keep, vars, vals []string) string {
	parts := make([]string, 0, len(keep))
	for _, k := range keep {
		for i, v := range vars {
			if v == k {
				parts = append(parts, k+"="+vals[i])
				break
			}
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// setDiff describes the first few asymmetric elements, or "" when equal.
func setDiff(a, b map[string]bool) string {
	var onlyA, onlyB []string
	for k := range a {
		if !b[k] {
			onlyA = append(onlyA, k)
		}
	}
	for k := range b {
		if !a[k] {
			onlyB = append(onlyB, k)
		}
	}
	if len(onlyA) == 0 && len(onlyB) == 0 {
		return ""
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	const maxShow = 5
	if len(onlyA) > maxShow {
		onlyA = append(onlyA[:maxShow], "…")
	}
	if len(onlyB) > maxShow {
		onlyB = append(onlyB[:maxShow], "…")
	}
	return fmt.Sprintf("only in first: %v; only in second: %v", onlyA, onlyB)
}

func hasDup(ss []string) bool {
	seen := make(map[string]bool, len(ss))
	for _, s := range ss {
		if seen[s] {
			return true
		}
		seen[s] = true
	}
	return false
}

func intersect(a, b []string) []string {
	inB := make(map[string]bool, len(b))
	for _, s := range b {
		inB[s] = true
	}
	var out []string
	for _, s := range a {
		if inB[s] {
			out = append(out, s)
		}
	}
	return out
}
