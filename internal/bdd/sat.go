package bdd

import (
	"fmt"
	"math"
	"sort"
)

// sat.go implements model counting, satisfying-assignment extraction and
// structural measurements. The constraint checker uses AllSat to enumerate
// violating tuples directly from a violation BDD.

// Eval evaluates f under a complete assignment: value[i] is the value of
// variable i. Variables missing from a node's path are skipped as usual.
func (k *Kernel) Eval(f Ref, value []bool) bool {
	if f == Invalid {
		panic("bdd: Eval on Invalid ref")
	}
	for !k.isTerminal(f) {
		if value[k.level2var[k.level[f]]] {
			f = k.high[f]
		} else {
			f = k.low[f]
		}
	}
	return f == True
}

// SatCount returns the number of satisfying assignments of f over all
// NumVars variables, as a float64 (counts can exceed 2^63 long before they
// exhaust float64 precision for the sizes used here).
func (k *Kernel) SatCount(f Ref) float64 {
	if f == Invalid {
		panic("bdd: SatCount on Invalid ref")
	}
	memo := make(map[Ref]float64)
	var rec func(Ref) float64 // models over variables strictly below the node's level
	rec = func(g Ref) float64 {
		if g == False {
			return 0
		}
		if g == True {
			return 1
		}
		if c, ok := memo[g]; ok {
			return c
		}
		level, lo, hi := int(k.level[g]), k.low[g], k.high[g]
		low := rec(lo) * math.Exp2(float64(k.Level(lo)-level-1))
		high := rec(hi) * math.Exp2(float64(k.Level(hi)-level-1))
		c := low + high
		memo[g] = c
		return c
	}
	return rec(f) * math.Exp2(float64(k.Level(f)))
}

// SatCountWithin returns the number of satisfying assignments of f over the
// given variable set only. vars must be sorted ascending and must cover the
// support of f; SatCountWithin panics otherwise. Unlike SatCount it stays
// accurate in kernels with thousands of variables, where 2^NumVars exceeds
// float64 range.
func (k *Kernel) SatCountWithin(f Ref, vars []int) float64 {
	if f == Invalid {
		panic("bdd: SatCountWithin on Invalid ref")
	}
	// Rank the variables by their position in the current order: the
	// recursion multiplies by 2^(gap) for the don't-care levels skipped
	// between a node and its child, so ranks must follow levels.
	levels := make([]int, len(vars))
	for i, v := range vars {
		if i > 0 && vars[i-1] >= v {
			panic("bdd: SatCountWithin vars not sorted ascending")
		}
		k.checkVar(v)
		levels[i] = int(k.var2level[v])
	}
	sort.Ints(levels)
	rank := make(map[int]int, len(levels))
	for i, l := range levels {
		rank[l] = i
	}
	rankOf := func(g Ref) int {
		if k.isTerminal(g) {
			return len(vars)
		}
		r, ok := rank[int(k.level[g])]
		if !ok {
			panic(fmt.Sprintf("bdd: SatCountWithin: variable %d in support but not in vars", k.VarOf(g)))
		}
		return r
	}
	memo := make(map[Ref]float64)
	var rec func(Ref) float64
	rec = func(g Ref) float64 {
		if g == False {
			return 0
		}
		if g == True {
			return 1
		}
		if c, ok := memo[g]; ok {
			return c
		}
		r := rankOf(g)
		low := rec(k.low[g]) * math.Exp2(float64(rankOf(k.low[g])-r-1))
		high := rec(k.high[g]) * math.Exp2(float64(rankOf(k.high[g])-r-1))
		c := low + high
		memo[g] = c
		return c
	}
	return rec(f) * math.Exp2(float64(rankOf(f)))
}

// AnySat returns one satisfying assignment of f as a list of literals for
// the variables on the chosen path (other variables are don't-cares), or
// false if f is unsatisfiable.
func (k *Kernel) AnySat(f Ref) ([]Literal, bool) {
	if f == Invalid {
		panic("bdd: AnySat on Invalid ref")
	}
	if f == False {
		return nil, false
	}
	var lits []Literal
	for !k.isTerminal(f) {
		v := int(k.level2var[k.level[f]])
		if k.high[f] != False {
			lits = append(lits, Literal{Var: v, Value: true})
			f = k.high[f]
		} else {
			lits = append(lits, Literal{Var: v, Value: false})
			f = k.low[f]
		}
	}
	return lits, true
}

// AllSat calls visit for every path from f to the True terminal. Each path
// is reported as the list of literals along it; variables not mentioned are
// don't-cares for that path. visit may return false to stop the enumeration
// early. The slice passed to visit is reused between calls; callers that
// retain it must copy it.
func (k *Kernel) AllSat(f Ref, visit func([]Literal) bool) {
	if f == Invalid {
		panic("bdd: AllSat on Invalid ref")
	}
	var path []Literal
	var rec func(Ref) bool
	rec = func(g Ref) bool {
		switch g {
		case False:
			return true
		case True:
			return visit(path)
		}
		v := int(k.level2var[k.level[g]])
		low, high := k.low[g], k.high[g]
		path = append(path, Literal{Var: v, Value: false})
		if !rec(low) {
			return false
		}
		path[len(path)-1].Value = true
		if !rec(high) {
			return false
		}
		path = path[:len(path)-1]
		return true
	}
	rec(f)
}

// NodeCount returns the number of BDD nodes reachable from f, excluding the
// terminals. This is the size measure used throughout the paper's
// experiments ("BDD node count").
func (k *Kernel) NodeCount(f Ref) int { return k.SharedNodeCount(f) }

// SharedNodeCount returns the number of distinct nodes reachable from any of
// the given roots, excluding terminals. It measures the footprint of a set
// of indices under the shared-node implementation the paper highlights.
// Visited nodes are tracked in a bitset over the node table: a walk over
// 10⁵ nodes costs a 16 KB allocation instead of a map that large.
func (k *Kernel) SharedNodeCount(roots ...Ref) int {
	seen := make([]uint64, (len(k.level)+63)/64)
	var stack []Ref
	// visit reports whether g is a not-yet-seen internal node and marks it.
	visit := func(g Ref) bool {
		if g == Invalid || k.isTerminal(g) || seen[g>>6]&(1<<(g&63)) != 0 {
			return false
		}
		seen[g>>6] |= 1 << (g & 63)
		return true
	}
	for _, f := range roots {
		if visit(f) {
			stack = append(stack, f)
		}
	}
	count := 0
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		if lo := k.low[g]; visit(lo) {
			stack = append(stack, lo)
		}
		if hi := k.high[g]; visit(hi) {
			stack = append(stack, hi)
		}
	}
	return count
}

// Support returns the ascending list of variables on which f depends.
func (k *Kernel) Support(f Ref) []int {
	if f == Invalid {
		return nil
	}
	inSupport := make([]bool, k.numVars)
	seen := map[Ref]bool{}
	var stack []Ref
	if !k.isTerminal(f) {
		stack = append(stack, f)
		seen[f] = true
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		inSupport[k.level2var[k.level[g]]] = true
		for _, c := range []Ref{k.low[g], k.high[g]} {
			if !k.isTerminal(c) && !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	var vars []int
	for i, ok := range inSupport {
		if ok {
			vars = append(vars, i)
		}
	}
	return vars
}
