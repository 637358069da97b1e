package main

// oracle.go holds the benchmark's own evaluators, written apart from the
// program: brute-force scans of REL/REF for the Q1–Q5 templates, and
// incremental counters over the benchmark's copy of CUST/CONS for the
// registered constraints. Every verdict and witness the server returns is
// checked against them.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// table1Oracle answers Q1–Q5 by scanning a copy of REL and REF.
type table1Oracle struct {
	rel [][5]int32
	// refB[x] is the set of b values REF pairs with a0 = x.
	refB []map[int32]bool
}

func newTable1Oracle(cat *relation.Catalog, domSize int) (*table1Oracle, error) {
	rel, ref := cat.Table("REL"), cat.Table("REF")
	if rel == nil || ref == nil {
		return nil, fmt.Errorf("oracle: catalog lacks REL or REF")
	}
	o := &table1Oracle{refB: make([]map[int32]bool, domSize)}
	// Translate codes to value indices through the value names, so the
	// oracle never depends on how the program assigns codes.
	idx := func(t *relation.Table, r, c int) int32 { return valIndex(t.Value(r, c)) }
	for r := 0; r < rel.Len(); r++ {
		var row [5]int32
		for c := 0; c < 5; c++ {
			row[c] = idx(rel, r, c)
		}
		o.rel = append(o.rel, row)
	}
	for r := 0; r < ref.Len(); r++ {
		x, b := idx(ref, r, 0), idx(ref, r, 1)
		if o.refB[x] == nil {
			o.refB[x] = map[int32]bool{}
		}
		o.refB[x][b] = true
	}
	return o, nil
}

// valIndex parses a "vNNN" value name; -1 for anything else.
func valIndex(v string) int32 {
	if !strings.HasPrefix(v, "v") {
		return -1
	}
	n, err := strconv.Atoi(v[1:])
	if err != nil {
		return -1
	}
	return int32(n)
}

func inSet(set []int, v int32) bool {
	for _, s := range set {
		if int32(s) == v {
			return true
		}
	}
	return false
}

func (o *table1Oracle) refHasAny(x int32, bs []int) bool {
	m := o.refB[x]
	for _, b := range bs {
		if m[int32(b)] {
			return true
		}
	}
	return false
}

// rowViolates reports whether one REL row violates q, binding the
// template's leading universal variables to the row's values. Q3 needs two
// rows, so it is handled by violated/witness directly.
func (o *table1Oracle) rowViolates(q adhoc, row [5]int32) bool {
	switch q.Template {
	case "Q1":
		return row[0] == int32(q.X) && !inSet(q.Set1, row[1])
	case "Q2":
		return inSet(q.Set0, row[0]) && !inSet(q.Set1, row[3])
	case "Q4":
		return inSet(q.Set0, row[3]) && !o.refHasAny(row[0], q.Set1)
	case "Q5":
		return !inSet(q.Set0, row[2]) && !o.refHasAny(row[0], q.Set1)
	}
	return false
}

// violated evaluates q over the whole of REL/REF.
func (o *table1Oracle) violated(q adhoc) bool {
	if q.Template == "Q3" {
		seen := map[int32]int32{}
		for _, row := range o.rel {
			x, y := row[q.I], row[q.J]
			if prev, ok := seen[x]; ok && prev != y {
				return true
			}
			seen[x] = y
		}
		return false
	}
	for _, row := range o.rel {
		if o.rowViolates(q, row) {
			return true
		}
	}
	return false
}

// witnessViolates checks one returned binding of q's leading universal
// variables against REL/REF.
func (o *table1Oracle) witnessViolates(q adhoc, b map[string]string) bool {
	get := func(name string) int32 {
		v, ok := b[name]
		if !ok {
			return -1
		}
		return valIndex(v)
	}
	switch q.Template {
	case "Q1":
		x, y := get("x"), get("y")
		return x == int32(q.X) && !inSet(q.Set1, y) && o.hasRow(map[int]int32{0: x, 1: y})
	case "Q2":
		x, w := get("x"), get("w")
		return inSet(q.Set0, x) && !inSet(q.Set1, w) && o.hasRow(map[int]int32{0: x, 3: w})
	case "Q3":
		x, y, z := get("x"), get("y"), get("z")
		return y != z && o.hasRow(map[int]int32{q.I: x, q.J: y}) && o.hasRow(map[int]int32{q.I: x, q.J: z})
	case "Q4":
		x, f := get("x"), get("f")
		return inSet(q.Set0, f) && !o.refHasAny(x, q.Set1) && o.hasRow(map[int]int32{0: x, 3: f})
	case "Q5":
		x, z := get("x"), get("z")
		return !inSet(q.Set0, z) && !o.refHasAny(x, q.Set1) && o.hasRow(map[int]int32{0: x, 2: z})
	}
	return false
}

func (o *table1Oracle) hasRow(want map[int]int32) bool {
	for _, row := range o.rel {
		match := true
		for c, v := range want {
			if row[c] != v {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// custOracle keeps incremental counters over the benchmark's copy of CUST
// (CONS is never updated) and answers the registered constraints from
// them in O(1).
type custOracle struct {
	// rows is the live multiset of CUST, in no particular order; deletes
	// swap-remove.
	rows []custRow

	// Pair multiplicities.
	as, cs, ca, zc map[int64]int32
	// Distinct dependents per determinant, and how many determinants have
	// two or more (the FD violation counts).
	asStates, csStates, zcCities map[int32]int32
	badAS, badCS, badZC          int

	consCity map[int32]bool
	consPair map[int64]bool
	// consViol counts CUST tuples whose city is constrained by CONS but
	// whose (city, areacode) pair is not allowed.
	consViol int

	state   int32
	allowed map[int32]bool
	// stateViol counts CUST tuples in the pinned state with an areacode
	// outside its set.
	stateViol int

	city, home int32
	// homeViol counts CUST tuples of the pinned city outside its home state.
	homeViol int
}

func pairKey(a, b int32) int64 { return int64(a)<<32 | int64(uint32(b)) }

func newCustOracle(in *custInputs) *custOracle {
	o := &custOracle{
		as: map[int64]int32{}, cs: map[int64]int32{}, ca: map[int64]int32{}, zc: map[int64]int32{},
		asStates: map[int32]int32{}, csStates: map[int32]int32{}, zcCities: map[int32]int32{},
		consCity: map[int32]bool{}, consPair: map[int64]bool{},
		state: int32(in.State), allowed: map[int32]bool{},
		city: int32(in.City), home: int32(in.Home),
	}
	for _, a := range in.Allowed {
		o.allowed[int32(a)] = true
	}
	cons := in.cat.Table("CONS")
	for r := 0; r < cons.Len(); r++ {
		c, a := cons.Row(r)[0], cons.Row(r)[1]
		o.consCity[c] = true
		o.consPair[pairKey(c, a)] = true
	}
	cust := in.cat.Table("CUST")
	for r := 0; r < cust.Len(); r++ {
		var row custRow
		copy(row[:], cust.Row(r))
		o.insert(row)
	}
	return o
}

// bump moves one pair multiplicity by d and keeps the FD bookkeeping of
// its determinant in step.
func bump(pairs map[int64]int32, distinct map[int32]int32, bad *int, det, dep int32, d int32) {
	k := pairKey(det, dep)
	before := pairs[k]
	after := before + d
	if after == 0 {
		delete(pairs, k)
	} else {
		pairs[k] = after
	}
	switch {
	case before == 0 && after > 0:
		distinct[det]++
		if distinct[det] == 2 {
			*bad++
		}
	case before > 0 && after == 0:
		distinct[det]--
		if distinct[det] == 1 {
			*bad--
		}
	}
}

func (o *custOracle) count(r custRow, d int32) {
	area, city, state, zip := r[0], r[2], r[3], r[4]
	bump(o.as, o.asStates, &o.badAS, area, state, d)
	bump(o.cs, o.csStates, &o.badCS, city, state, d)
	bump(o.zc, o.zcCities, &o.badZC, zip, city, d)
	k := pairKey(city, area)
	o.ca[k] += d
	if o.ca[k] == 0 {
		delete(o.ca, k)
	}
	if o.consCity[city] && !o.consPair[k] {
		o.consViol += int(d)
	}
	if state == o.state && !o.allowed[area] {
		o.stateViol += int(d)
	}
	if city == o.city && state != o.home {
		o.homeViol += int(d)
	}
}

func (o *custOracle) insert(r custRow) {
	o.rows = append(o.rows, r)
	o.count(r, 1)
}

// deleteAt removes the i-th live row and returns it.
func (o *custOracle) deleteAt(i int) custRow {
	r := o.rows[i]
	last := len(o.rows) - 1
	o.rows[i] = o.rows[last]
	o.rows = o.rows[:last]
	o.count(r, -1)
	return r
}

// violated answers one registered constraint on the current copy.
func (o *custOracle) violated(name string) bool {
	switch name {
	case cAreaState:
		return o.badAS > 0
	case cCityState:
		return o.badCS > 0
	case cConsMember:
		return o.consViol > 0
	case cStateAreas:
		return o.stateViol > 0
	case cZipCity:
		return o.badZC > 0
	case cCityHome:
		return o.homeViol > 0
	}
	panic("oracle: unknown constraint " + name)
}

// verdicts snapshots every registered constraint's verdict, in custNames
// order.
func (o *custOracle) verdicts() []bool {
	out := make([]bool, len(custNames))
	for i, n := range custNames {
		out[i] = o.violated(n)
	}
	return out
}

// Value-name parsers for the customer domains.
func parseCode(v, prefix string) int32 {
	if !strings.HasPrefix(v, prefix) {
		return -1
	}
	n, err := strconv.Atoi(v[len(prefix):])
	if err != nil {
		return -1
	}
	return int32(n)
}

func areaCode(v string) int32 {
	n := parseCode(v, "")
	if n < 200 {
		return -1
	}
	return n - 200
}

// witnessViolates checks one returned binding of a registered constraint
// against the current copy.
func (o *custOracle) witnessViolates(name string, b map[string]string) bool {
	has := func(m map[int64]int32, x, y int32) bool { return x >= 0 && y >= 0 && m[pairKey(x, y)] > 0 }
	switch name {
	case cAreaState:
		a, s1, s2 := areaCode(b["a"]), parseCode(b["s1"], "S"), parseCode(b["s2"], "S")
		return s1 != s2 && has(o.as, a, s1) && has(o.as, a, s2)
	case cCityState:
		c, s1, s2 := parseCode(b["c"], "city"), parseCode(b["s1"], "S"), parseCode(b["s2"], "S")
		return s1 != s2 && has(o.cs, c, s1) && has(o.cs, c, s2)
	case cConsMember:
		c, a := parseCode(b["c"], "city"), areaCode(b["a"])
		return has(o.ca, c, a) && o.consCity[c] && !o.consPair[pairKey(c, a)]
	case cStateAreas:
		a := areaCode(b["a"])
		return a >= 0 && !o.allowed[a] && has(o.as, a, o.state)
	case cZipCity:
		z, c1, c2 := parseCode(b["z"], "Z"), parseCode(b["c1"], "city"), parseCode(b["c2"], "city")
		return c1 != c2 && has(o.zc, z, c1) && has(o.zc, z, c2)
	case cCityHome:
		s := parseCode(b["s"], "S")
		return s >= 0 && s != o.home && has(o.cs, o.city, s)
	}
	return false
}
