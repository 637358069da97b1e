package bdd_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

// expr is a reference boolean expression evaluated both directly and via the
// kernel, so every operator is checked against ground truth on all 2^n
// assignments.
type expr struct {
	kind     byte // 'v' var, '!' not, '&', '|', '^', '>', '=', 'E' exists, 'A' forall
	varIdx   int
	from, to *expr
}

func leaf(i int) *expr               { return &expr{kind: 'v', varIdx: i} }
func not(e *expr) *expr              { return &expr{kind: '!', from: e} }
func binop(k byte, a, b *expr) *expr { return &expr{kind: k, from: a, to: b} }
func quant(k byte, v int, e *expr) *expr {
	return &expr{kind: k, varIdx: v, from: e}
}

func (e *expr) eval(a []bool) bool {
	switch e.kind {
	case 'v':
		return a[e.varIdx]
	case '!':
		return !e.from.eval(a)
	case '&':
		return e.from.eval(a) && e.to.eval(a)
	case '|':
		return e.from.eval(a) || e.to.eval(a)
	case '^':
		return e.from.eval(a) != e.to.eval(a)
	case '>':
		return !e.from.eval(a) || e.to.eval(a)
	case '=':
		return e.from.eval(a) == e.to.eval(a)
	case 'E', 'A':
		saved := a[e.varIdx]
		a[e.varIdx] = false
		r0 := e.from.eval(a)
		a[e.varIdx] = true
		r1 := e.from.eval(a)
		a[e.varIdx] = saved
		if e.kind == 'E' {
			return r0 || r1
		}
		return r0 && r1
	}
	panic("bad expr kind")
}

func (e *expr) build(k *bdd.Kernel) bdd.Ref {
	switch e.kind {
	case 'v':
		return k.Var(e.varIdx)
	case '!':
		return k.Not(e.from.build(k))
	case '&':
		return k.And(e.from.build(k), e.to.build(k))
	case '|':
		return k.Or(e.from.build(k), e.to.build(k))
	case '^':
		return k.Xor(e.from.build(k), e.to.build(k))
	case '>':
		return k.Imp(e.from.build(k), e.to.build(k))
	case '=':
		return k.Biimp(e.from.build(k), e.to.build(k))
	case 'E':
		return k.Exists(e.from.build(k), k.Cube(e.varIdx))
	case 'A':
		return k.Forall(e.from.build(k), k.Cube(e.varIdx))
	}
	panic("bad expr kind")
}

// randExpr generates a random expression over nv variables with the given
// node budget.
func randExpr(rng *rand.Rand, nv, size int) *expr {
	if size <= 1 {
		return leaf(rng.Intn(nv))
	}
	switch rng.Intn(8) {
	case 0:
		return not(randExpr(rng, nv, size-1))
	case 1:
		return quant('E', rng.Intn(nv), randExpr(rng, nv, size-1))
	case 2:
		return quant('A', rng.Intn(nv), randExpr(rng, nv, size-1))
	default:
		ops := []byte{'&', '|', '^', '>', '='}
		l := rng.Intn(size-1) + 1
		return binop(ops[rng.Intn(len(ops))],
			randExpr(rng, nv, l), randExpr(rng, nv, size-l))
	}
}

func assignments(n int) [][]bool {
	out := make([][]bool, 0, 1<<n)
	for m := 0; m < 1<<n; m++ {
		a := make([]bool, n)
		for i := 0; i < n; i++ {
			a[i] = m&(1<<i) != 0
		}
		out = append(out, a)
	}
	return out
}

func TestTerminals(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 3})
	if bdd.False == bdd.True {
		t.Fatal("terminals must differ")
	}
	if k.Not(bdd.True) != bdd.False || k.Not(bdd.False) != bdd.True {
		t.Fatal("negated terminals wrong")
	}
	if k.And(bdd.True, bdd.False) != bdd.False {
		t.Fatal("true AND false != false")
	}
	if k.Or(bdd.True, bdd.False) != bdd.True {
		t.Fatal("true OR false != true")
	}
	if !k.IsTerminal(bdd.True) || !k.IsTerminal(bdd.False) {
		t.Fatal("IsTerminal on terminals")
	}
	if k.IsTerminal(k.Var(0)) {
		t.Fatal("IsTerminal on variable")
	}
}

func TestVarSemantics(t *testing.T) {
	const n = 4
	k := bdd.New(bdd.Config{Vars: n})
	for i := 0; i < n; i++ {
		v, nv := k.Var(i), k.NVar(i)
		for _, a := range assignments(n) {
			if k.Eval(v, a) != a[i] {
				t.Fatalf("Var(%d) wrong on %v", i, a)
			}
			if k.Eval(nv, a) != !a[i] {
				t.Fatalf("NVar(%d) wrong on %v", i, a)
			}
		}
		if k.Not(v) != nv {
			t.Fatalf("Not(Var(%d)) != NVar(%d)", i, i)
		}
	}
}

func TestRandomExpressionsMatchBruteForce(t *testing.T) {
	const nv = 6
	rng := rand.New(rand.NewSource(7))
	k := bdd.New(bdd.Config{Vars: nv})
	all := assignments(nv)
	for trial := 0; trial < 300; trial++ {
		e := randExpr(rng, nv, 12)
		f := e.build(k)
		if err := k.Err(); err != nil {
			t.Fatalf("unexpected kernel error: %v", err)
		}
		for _, a := range all {
			if k.Eval(f, a) != e.eval(a) {
				t.Fatalf("trial %d: mismatch on %v", trial, a)
			}
		}
	}
}

func TestCanonicityEquivalentFormulasShareRef(t *testing.T) {
	const nv = 5
	rng := rand.New(rand.NewSource(11))
	k := bdd.New(bdd.Config{Vars: nv})
	all := assignments(nv)
	// Build many random functions; bucket by truth table; all functions in a
	// bucket must be the same Ref (Bryant's canonicity, the paper's Fact 1).
	byTable := make(map[uint32]bdd.Ref)
	for trial := 0; trial < 200; trial++ {
		e := randExpr(rng, nv, 10)
		f := e.build(k)
		var table uint32
		for i, a := range all {
			if k.Eval(f, a) {
				table |= 1 << i
			}
		}
		if prev, ok := byTable[table]; ok {
			if prev != f {
				t.Fatalf("trial %d: equivalent functions got refs %d and %d", trial, prev, f)
			}
		} else {
			byTable[table] = f
		}
	}
}

func TestBooleanIdentities(t *testing.T) {
	const nv = 6
	rng := rand.New(rand.NewSource(3))
	k := bdd.New(bdd.Config{Vars: nv})
	for trial := 0; trial < 100; trial++ {
		f := randExpr(rng, nv, 8).build(k)
		g := randExpr(rng, nv, 8).build(k)
		h := randExpr(rng, nv, 8).build(k)
		if k.Not(k.Not(f)) != f {
			t.Fatal("double negation")
		}
		if k.Not(k.And(f, g)) != k.Or(k.Not(f), k.Not(g)) {
			t.Fatal("De Morgan AND")
		}
		if k.Not(k.Or(f, g)) != k.And(k.Not(f), k.Not(g)) {
			t.Fatal("De Morgan OR")
		}
		if k.And(f, k.Or(g, h)) != k.Or(k.And(f, g), k.And(f, h)) {
			t.Fatal("distribution")
		}
		if k.Or(f, k.And(f, g)) != f {
			t.Fatal("absorption")
		}
		if k.Imp(f, g) != k.Or(k.Not(f), g) {
			t.Fatal("implication definition")
		}
		if k.Biimp(f, g) != k.Not(k.Xor(f, g)) {
			t.Fatal("biimplication definition")
		}
		if k.Diff(f, g) != k.And(f, k.Not(g)) {
			t.Fatal("difference definition")
		}
		if k.ITE(f, g, h) != k.Or(k.And(f, g), k.And(k.Not(f), h)) {
			t.Fatal("ITE definition")
		}
	}
}

func TestQuantifierIdentities(t *testing.T) {
	const nv = 6
	rng := rand.New(rand.NewSource(5))
	k := bdd.New(bdd.Config{Vars: nv})
	for trial := 0; trial < 100; trial++ {
		f := randExpr(rng, nv, 8).build(k)
		g := randExpr(rng, nv, 8).build(k)
		x := rng.Intn(nv)
		cube := k.Cube(x)
		// Quantifier duality.
		if k.Exists(f, cube) != k.Not(k.Forall(k.Not(f), cube)) {
			t.Fatal("∃x f != ¬∀x ¬f")
		}
		// The paper's Equation 3: ∃x φ1 ∨ ∃x φ2 == ∃x (φ1 ∨ φ2).
		lhs := k.Or(k.Exists(f, cube), k.Exists(g, cube))
		rhs := k.Exists(k.Or(f, g), cube)
		if lhs != rhs {
			t.Fatal("∃ does not distribute over ∨")
		}
		// The paper's Equation 4: ∀x φ1 ∧ ∀x φ2 == ∀x (φ1 ∧ φ2).
		lhs = k.And(k.Forall(f, cube), k.Forall(g, cube))
		rhs = k.Forall(k.And(f, g), cube)
		if lhs != rhs {
			t.Fatal("∀ does not distribute over ∧")
		}
		// AppEx/AppAll agree with the two-step evaluation.
		if k.AppEx(f, g, bdd.OpAnd, cube) != k.Exists(k.And(f, g), cube) {
			t.Fatal("AppEx(∧) mismatch")
		}
		if k.AppEx(f, g, bdd.OpOr, cube) != k.Exists(k.Or(f, g), cube) {
			t.Fatal("AppEx(∨) mismatch")
		}
		if k.AppAll(f, g, bdd.OpAnd, cube) != k.Forall(k.And(f, g), cube) {
			t.Fatal("AppAll(∧) mismatch")
		}
		if k.AppAll(f, g, bdd.OpOr, cube) != k.Forall(k.Or(f, g), cube) {
			t.Fatal("AppAll(∨) mismatch")
		}
	}
}

func TestMultiVariableQuantification(t *testing.T) {
	const nv = 7
	rng := rand.New(rand.NewSource(13))
	k := bdd.New(bdd.Config{Vars: nv})
	for trial := 0; trial < 60; trial++ {
		f := randExpr(rng, nv, 10).build(k)
		// Quantify a random set of 3 variables; compare with sequential
		// single-variable quantification.
		xs := rng.Perm(nv)[:3]
		cube := k.Cube(xs...)
		seqE, seqA := f, f
		for _, x := range xs {
			seqE = k.Exists(seqE, k.Cube(x))
			seqA = k.Forall(seqA, k.Cube(x))
		}
		if k.Exists(f, cube) != seqE {
			t.Fatal("multi-var Exists != sequential")
		}
		if k.Forall(f, cube) != seqA {
			t.Fatal("multi-var Forall != sequential")
		}
	}
}

func TestCubeVarsRoundTrip(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 10})
	cube := k.Cube(7, 2, 5, 2)
	got := k.CubeVars(cube)
	want := []int{2, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("CubeVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CubeVars = %v, want %v", got, want)
		}
	}
}

func TestRestrict(t *testing.T) {
	const nv = 6
	rng := rand.New(rand.NewSource(17))
	k := bdd.New(bdd.Config{Vars: nv})
	for trial := 0; trial < 100; trial++ {
		e := randExpr(rng, nv, 10)
		f := e.build(k)
		x := rng.Intn(nv)
		val := rng.Intn(2) == 1
		r := k.Restrict(f, []bdd.Literal{{Var: x, Value: val}})
		for _, a := range assignments(nv) {
			a[x] = val
			if k.Eval(r, a) != e.eval(a) {
				t.Fatalf("Restrict mismatch at trial %d", trial)
			}
		}
		// A restricted BDD must not depend on the restricted variable.
		for _, v := range k.Support(r) {
			if v == x {
				t.Fatal("restricted variable still in support")
			}
		}
	}
}

func TestMinterm(t *testing.T) {
	const nv = 8
	rng := rand.New(rand.NewSource(19))
	k := bdd.New(bdd.Config{Vars: nv})
	for trial := 0; trial < 50; trial++ {
		var lits []bdd.Literal
		used := map[int]bool{}
		for i := 0; i < 4; i++ {
			v := rng.Intn(nv)
			if used[v] {
				continue
			}
			used[v] = true
			lits = append(lits, bdd.Literal{Var: v, Value: rng.Intn(2) == 1})
		}
		m := k.Minterm(lits)
		// Equivalent construction through And of single literals.
		ref := bdd.True
		for _, l := range lits {
			if l.Value {
				ref = k.And(ref, k.Var(l.Var))
			} else {
				ref = k.And(ref, k.NVar(l.Var))
			}
		}
		if m != ref {
			t.Fatalf("Minterm != And of literals, trial %d", trial)
		}
	}
	// Contradictory literals give False.
	if k.Minterm([]bdd.Literal{{Var: 1, Value: true}, {Var: 1, Value: false}}) != bdd.False {
		t.Fatal("contradictory minterm not False")
	}
	// Duplicate consistent literals are fine.
	if k.Minterm([]bdd.Literal{{Var: 1, Value: true}, {Var: 1, Value: true}}) != k.Var(1) {
		t.Fatal("duplicate literal mishandled")
	}
	if k.Minterm(nil) != bdd.True {
		t.Fatal("empty minterm must be True")
	}
}

func TestSatCount(t *testing.T) {
	const nv = 8
	rng := rand.New(rand.NewSource(23))
	k := bdd.New(bdd.Config{Vars: nv})
	for trial := 0; trial < 60; trial++ {
		e := randExpr(rng, nv, 10)
		f := e.build(k)
		want := 0
		for _, a := range assignments(nv) {
			if e.eval(a) {
				want++
			}
		}
		if got := k.SatCount(f); got != float64(want) {
			t.Fatalf("SatCount = %v, want %d", got, want)
		}
	}
	if k.SatCount(bdd.True) != 256 {
		t.Fatal("SatCount(True) wrong")
	}
	if k.SatCount(bdd.False) != 0 {
		t.Fatal("SatCount(False) wrong")
	}
}

func TestAnySatAllSat(t *testing.T) {
	const nv = 6
	rng := rand.New(rand.NewSource(29))
	k := bdd.New(bdd.Config{Vars: nv})
	for trial := 0; trial < 60; trial++ {
		e := randExpr(rng, nv, 10)
		f := e.build(k)
		lits, ok := k.AnySat(f)
		if !ok {
			if f != bdd.False {
				t.Fatal("AnySat failed on satisfiable function")
			}
			continue
		}
		a := make([]bool, nv)
		for _, l := range lits {
			a[l.Var] = l.Value
		}
		if !k.Eval(f, a) {
			t.Fatal("AnySat returned a non-model")
		}
		// AllSat paths, expanded over don't-cares, must exactly recover the
		// satisfying set.
		got := map[int]bool{}
		k.AllSat(f, func(path []bdd.Literal) bool {
			fixed := map[int]bool{}
			for _, l := range path {
				fixed[l.Var] = l.Value
			}
			var expand func(i, m int)
			expand = func(i, m int) {
				if i == nv {
					got[m] = true
					return
				}
				if v, ok := fixed[i]; ok {
					if v {
						m |= 1 << i
					}
					expand(i+1, m)
					return
				}
				expand(i+1, m)
				expand(i+1, m|1<<i)
			}
			expand(0, 0)
			return true
		})
		for i, a := range assignments(nv) {
			if e.eval(a) != got[i] {
				t.Fatalf("AllSat set mismatch at assignment %d", i)
			}
		}
	}
}

func TestReplaceShiftsBlocks(t *testing.T) {
	// Variables 0-2 are block A, 3-5 are block B. Renaming A→B must turn a
	// function of A into the same function of B.
	k := bdd.New(bdd.Config{Vars: 6})
	m, err := k.NewReplaceMap([][2]int{{0, 3}, {1, 4}, {2, 5}})
	if err != nil {
		t.Fatalf("NewReplaceMap: %v", err)
	}
	f := k.Or(k.And(k.Var(0), k.Var(1)), k.Not(k.Var(2)))
	g := k.Replace(f, m)
	want := k.Or(k.And(k.Var(3), k.Var(4)), k.Not(k.Var(5)))
	if g != want {
		t.Fatal("Replace result differs from direct construction")
	}
}

func TestReplaceRejectsOrderViolations(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 6})
	// Swapping two variables is not monotone; rejected statically.
	if _, err := k.NewReplaceMap([][2]int{{0, 3}, {3, 0}}); err == nil {
		t.Fatal("swap accepted")
	}
	// Duplicate target and duplicate source.
	if _, err := k.NewReplaceMap([][2]int{{0, 4}, {1, 4}}); err == nil {
		t.Fatal("duplicate target accepted")
	}
	if _, err := k.NewReplaceMap([][2]int{{0, 4}, {0, 5}}); err == nil {
		t.Fatal("duplicate source accepted")
	}
}

func TestReplaceRuntimeOrderCheck(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 6})
	// Renaming 0→2 is fine on functions not involving variable 1...
	m, err := k.NewReplaceMap([][2]int{{0, 2}})
	if err != nil {
		t.Fatalf("NewReplaceMap: %v", err)
	}
	f := k.And(k.Var(0), k.Var(3))
	if got := k.Replace(f, m); got != k.And(k.Var(2), k.Var(3)) {
		t.Fatal("valid rename across unused variable failed")
	}
	// ...but renaming 0→2 on a function using variable 1 would order the
	// fixed variable across the renamed one; detected at runtime.
	g := k.And(k.Var(0), k.Var(1))
	if got := k.Replace(g, m); got != bdd.Invalid {
		t.Fatal("order-violating rename not rejected")
	}
	if !errors.Is(k.Err(), bdd.ErrOrder) {
		t.Fatalf("Err = %v, want ErrOrder", k.Err())
	}
	k.ClearErr()
	// The kernel remains usable.
	if k.Replace(f, m) != k.And(k.Var(2), k.Var(3)) {
		t.Fatal("kernel unusable after ErrOrder")
	}
}

func TestNodeCountParity(t *testing.T) {
	// The parity function over n variables has exactly 2n-1 nodes in a
	// ROBDD without complement edges.
	for _, n := range []int{2, 5, 10, 16} {
		k := bdd.New(bdd.Config{Vars: n})
		f := bdd.False
		for i := 0; i < n; i++ {
			f = k.Xor(f, k.Var(i))
		}
		if got, want := k.NodeCount(f), 2*n-1; got != want {
			t.Errorf("parity over %d vars: NodeCount = %d, want %d", n, got, want)
		}
	}
}

func TestSharedNodeCount(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 4})
	f := k.And(k.Var(0), k.Var(1))
	g := k.And(k.Var(0), k.Var(1)) // same function, same nodes
	if k.SharedNodeCount(f, g) != k.NodeCount(f) {
		t.Fatal("identical functions should share all nodes")
	}
	// h = x2 ∨ f contains f as its whole low branch, so the union of the
	// two graphs is exactly h's graph.
	p := k.And(k.Var(2), k.Var(3))
	h := k.Or(k.Var(0), p)
	if k.SharedNodeCount(p, h) != k.NodeCount(h) {
		t.Fatal("subfunction nodes should be fully shared")
	}
}

// mapNodeCount is the reference node count: the map-based visited set
// NodeCount and SharedNodeCount used before the bitset.
func mapNodeCount(k *bdd.Kernel, roots ...bdd.Ref) int {
	seen := make(map[bdd.Ref]bool)
	var stack []bdd.Ref
	push := func(g bdd.Ref) {
		if g != bdd.Invalid && !k.IsTerminal(g) && !seen[g] {
			seen[g] = true
			stack = append(stack, g)
		}
	}
	for _, f := range roots {
		push(f)
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		push(k.Low(g))
		push(k.High(g))
	}
	return len(seen)
}

func TestNodeCountMatchesMapReference(t *testing.T) {
	const nv = 10
	rng := rand.New(rand.NewSource(37))
	k := bdd.New(bdd.Config{Vars: nv})
	var roots []bdd.Ref
	for trial := 0; trial < 200; trial++ {
		f := randExpr(rng, nv, 24).build(k)
		k.Protect(f) // keep earlier roots alive across GCs
		roots = append(roots, f)
		if got, want := k.NodeCount(f), mapNodeCount(k, f); got != want {
			t.Fatalf("trial %d: NodeCount = %d, map reference %d", trial, got, want)
		}
		some := roots[rng.Intn(len(roots)):]
		if got, want := k.SharedNodeCount(some...), mapNodeCount(k, some...); got != want {
			t.Fatalf("trial %d: SharedNodeCount over %d roots = %d, map reference %d", trial, len(some), got, want)
		}
	}
	if k.NodeCount(bdd.True) != 0 || k.NodeCount(bdd.Invalid) != 0 || k.SharedNodeCount() != 0 {
		t.Fatal("terminals, Invalid and no roots must count zero nodes")
	}
}

func TestBudgetAbort(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 40, NodeBudget: 64})
	// Parity needs only 2n-1 nodes, fine. A random dense function explodes.
	rng := rand.New(rand.NewSource(31))
	f := bdd.True
	for i := 0; i < 40; i += 2 {
		g := k.Or(k.And(k.Var(i), k.Var(rng.Intn(40))), k.Var(rng.Intn(40)))
		f = k.And(f, k.Xor(g, k.Var(rng.Intn(40))))
		if f == bdd.Invalid {
			break
		}
	}
	if k.Err() == nil {
		t.Skip("workload did not exceed the 64-node budget") // extremely unlikely
	}
	if f != bdd.Invalid {
		t.Fatal("aborted chain must yield Invalid")
	}
	// Operations on Invalid keep returning Invalid rather than panicking.
	if k.And(f, bdd.True) != bdd.Invalid {
		t.Fatal("Invalid must propagate")
	}
	k.ClearErr()
	if k.Err() != nil {
		t.Fatal("ClearErr did not clear")
	}
	// The kernel is usable again for small functions.
	k.GC()
	if k.And(k.Var(0), k.Var(1)) == bdd.Invalid {
		t.Fatal("kernel unusable after ClearErr+GC")
	}
}

func TestGCReclaimsGarbageAndKeepsProtected(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 16})
	rng := rand.New(rand.NewSource(37))
	keep := randExpr(rng, 16, 20).build(k)
	k.Protect(keep)
	keepCount := k.NodeCount(keep)
	// Generate garbage.
	for i := 0; i < 50; i++ {
		randExpr(rng, 16, 20).build(k)
	}
	before := k.Size()
	k.GC()
	after := k.Size()
	if after >= before {
		t.Fatalf("GC did not reclaim: before=%d after=%d", before, after)
	}
	if after < keepCount+2 {
		t.Fatalf("GC reclaimed protected nodes: live=%d, protected needs %d", after, keepCount)
	}
	// The protected BDD is still structurally intact.
	if k.NodeCount(keep) != keepCount {
		t.Fatal("protected BDD corrupted by GC")
	}
	k.Unprotect(keep)
}

func TestGCExtraRoots(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 8})
	rng := rand.New(rand.NewSource(41))
	f := randExpr(rng, 8, 15).build(k)
	n := k.NodeCount(f)
	k.GC(f) // unprotected but passed as an explicit root
	if k.NodeCount(f) != n {
		t.Fatal("extra root not preserved")
	}
}

func TestOperationsAfterGCStayCorrect(t *testing.T) {
	const nv = 8
	k := bdd.New(bdd.Config{Vars: nv})
	rng := rand.New(rand.NewSource(43))
	e1 := randExpr(rng, nv, 12)
	f := e1.build(k)
	k.Protect(f)
	k.GC()
	e2 := randExpr(rng, nv, 12)
	g := e2.build(k)
	h := k.And(f, g)
	for _, a := range assignments(nv) {
		if k.Eval(h, a) != (e1.eval(a) && e2.eval(a)) {
			t.Fatal("post-GC operation incorrect")
		}
	}
	k.Unprotect(f)
}

func TestAddVars(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 2})
	f := k.And(k.Var(0), k.Var(1))
	base := k.AddVars(2)
	if base != 2 || k.NumVars() != 4 {
		t.Fatalf("AddVars returned %d, NumVars %d", base, k.NumVars())
	}
	g := k.And(f, k.Var(3))
	a := []bool{true, true, false, true}
	if !k.Eval(g, a) {
		t.Fatal("function over extended variables wrong")
	}
}

func TestSupport(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 6})
	f := k.And(k.Var(1), k.Or(k.Var(3), k.NVar(5)))
	got := k.Support(f)
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Support = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
	if k.Support(bdd.True) != nil {
		t.Fatal("terminals have empty support")
	}
}

func TestUnbalancedUnprotectPanics(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 2})
	f := k.And(k.Var(0), k.Var(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Unprotect(f)
}

func TestDebugChecksCatchesStaleRef(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 4, DebugChecks: true})
	f := k.And(k.Var(0), k.Var(1))
	k.GC() // f is unpinned: its node is reclaimed
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on use of a GC-freed Ref")
		}
	}()
	k.Not(f)
}

func TestDebugChecksCatchesForeignRef(t *testing.T) {
	k1 := bdd.New(bdd.Config{Vars: 16, DebugChecks: true})
	k2 := bdd.New(bdd.Config{Vars: 16, DebugChecks: true})
	// Grow k1's table well past k2's so the foreign handle is out of range.
	f := bdd.True
	for i := 0; i < 16; i++ {
		f = k1.And(f, k1.Var(i))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a Ref from a different kernel")
		}
	}()
	//lint:ignore kernelmix this test commits the cross-kernel mistake on purpose to prove DebugChecks catches it
	k2.Not(f)
}

func TestDebugChecksAllowsInvalid(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 2, DebugChecks: true})
	if got := k.And(bdd.Invalid, k.Var(0)); got != bdd.Invalid {
		t.Fatalf("And(Invalid, x) = %v, want Invalid", got)
	}
}

func TestSetDebugChecksStampsExistingFreeList(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 4})
	f := k.And(k.Var(0), k.Var(1))
	k.GC() // frees f's node while checks are still off
	k.SetDebugChecks(true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a Ref freed before SetDebugChecks")
		}
	}()
	k.Not(f)
}
