package main

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// consistentCustomers generates a noise-free customer catalog, where every
// registered FD and set constraint holds by construction, with a CONS
// table allowing every (city, areacode) pair CUST uses, so the membership
// constraint holds too. city_home pins the first row's city; state_areas
// pins the state of the first row from another state.
func consistentCustomers(t *testing.T) *custInputs {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	cat := relation.NewCatalog()
	data, err := datagen.Customers(cat, "CUST", datagen.CustomerSpec{Tuples: 500}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := cat.CreateTable("CONS", []relation.Column{
		{Name: "city", Domain: "CUST.city"}, {Name: "areacode", Domain: "CUST.areacode"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cust := cat.Table("CUST")
	for r := 0; r < cust.Len(); r++ {
		row := cust.Row(r)
		cons.InsertCodes([]int32{row[2], row[0]})
	}
	in := &custInputs{cat: cat, data: data, City: int(cust.Row(0)[2]), Home: int(cust.Row(0)[3])}
	for r := 0; r < cust.Len(); r++ {
		if s := int(cust.Row(r)[3]); s != in.Home {
			in.State, in.Allowed = s, data.StateAreas[s]
			return in
		}
	}
	t.Fatal("every row has the same state")
	return nil
}

func TestCustOracleHoldsWithoutNoise(t *testing.T) {
	o := newCustOracle(consistentCustomers(t))
	for _, n := range custNames {
		if o.violated(n) {
			t.Errorf("%s violated on a noise-free catalog", n)
		}
	}
}

// TestCustOraclePlantedRows plants two tuples that together break every
// registered constraint — the pinned city under the pinned state with an
// areacode of a third state, and a second city for the pinned city's
// zipcode — and checks that each verdict flips, that each planted witness
// is recognised, and that deleting the tuples restores the verdicts.
func TestCustOraclePlantedRows(t *testing.T) {
	in := consistentCustomers(t)
	o := newCustOracle(in)
	base := o.rows[0] // the pinned city, its home state and one of its zipcodes
	city, home, zip, state := base[2], base[3], base[4], int32(in.State)
	area := int32(-1)
	for _, r := range o.rows {
		if r[3] != home && r[3] != state {
			area = r[0]
			break
		}
	}
	if area < 0 {
		t.Fatal("no row from a third state")
	}
	other := (city + 1) % datagen.NumCities
	o.insert(custRow{area, 0, city, state, zip})
	o.insert(custRow{base[0], 0, other, int32(in.data.CityState[other]), zip})
	for _, n := range custNames {
		if !o.violated(n) {
			t.Errorf("%s holds after the planted rows", n)
		}
	}
	st := func(v int32) string { return datagen.StateName(int(v)) }
	ci := func(v int32) string { return datagen.CityName(int(v)) }
	ar := datagen.AreacodeName(int(area))
	witnesses := map[string]map[string]string{
		cAreaState:  {"a": ar, "s1": st(state), "s2": st(int32(in.data.AreaState[area]))},
		cCityState:  {"c": ci(city), "s1": st(state), "s2": st(home)},
		cConsMember: {"c": ci(city), "a": ar},
		cStateAreas: {"a": ar},
		cZipCity:    {"z": datagen.ZipcodeName(int(zip)), "c1": ci(city), "c2": ci(other)},
		cCityHome:   {"s": st(state)},
	}
	for n, b := range witnesses {
		if !o.witnessViolates(n, b) {
			t.Errorf("%s: planted witness %v not recognised", n, b)
		}
	}
	if o.witnessViolates(cCityState, map[string]string{"c": ci(city), "s1": st(home), "s2": st(home)}) {
		t.Error("city_state accepted a binding with equal states")
	}
	if o.witnessViolates(cCityHome, map[string]string{"s": st(home)}) {
		t.Error("city_home accepted the home state")
	}
	// The planted rows are the last two live rows.
	o.deleteAt(len(o.rows) - 1)
	o.deleteAt(len(o.rows) - 1)
	for _, n := range custNames {
		if o.violated(n) {
			t.Errorf("%s still violated after deleting the planted rows", n)
		}
	}
}

// tinyREL builds REL/REF by hand: a0 → a1 is a function except where a
// test plants a row; REF pairs v000 with v001 only.
func tinyREL(t *testing.T, rows [][5]int) *table1Oracle {
	t.Helper()
	cat := relation.NewCatalog()
	cols := make([]relation.Column, 5)
	for i := range cols {
		cols[i] = relation.Column{Name: "a" + string(rune('0'+i)), Domain: "REL.a" + string(rune('0'+i))}
	}
	rel, err := cat.CreateTable("REL", cols)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cat.CreateTable("REF", []relation.Column{{Name: "a0", Domain: "REL.a0"}, {Name: "b", Domain: "REF.b"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		vals := make([]string, 5)
		for i, v := range r {
			vals[i] = valName(v)
		}
		rel.Insert(vals...)
	}
	ref.Insert(valName(0), valName(1))
	o, err := newTable1Oracle(cat, 100)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestTable1OracleTemplates(t *testing.T) {
	o := tinyREL(t, [][5]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
	cases := []struct {
		q    adhoc
		want bool
	}{
		{adhoc{Template: "Q1", X: 0, Set1: []int{1}}, false},
		{adhoc{Template: "Q1", X: 0, Set1: []int{2}}, true},
		{adhoc{Template: "Q2", Set0: []int{0, 5}, Set1: []int{3, 8}}, false},
		{adhoc{Template: "Q2", Set0: []int{5}, Set1: []int{3}}, true},
		{adhoc{Template: "Q3", I: 0, J: 1}, false},
		{adhoc{Template: "Q4", Set0: []int{3}, Set1: []int{1}}, false}, // x=0 pairs with b=1
		{adhoc{Template: "Q4", Set0: []int{8}, Set1: []int{1}}, true},  // x=5 has no REF row
		{adhoc{Template: "Q5", Set0: []int{7}, Set1: []int{1}}, false}, // z=2 row covered by REF(0,1)
		{adhoc{Template: "Q5", Set0: []int{2}, Set1: []int{1}}, true},  // z=7 row: x=5 uncovered
	}
	for _, c := range cases {
		if got := o.violated(c.q); got != c.want {
			t.Errorf("%s %+v: violated=%v, want %v", c.q.Template, c.q, got, c.want)
		}
	}
	// Planting a second a1 value for a0=v000 breaks the FD a0 → a1.
	o = tinyREL(t, [][5]int{{0, 1, 2, 3, 4}, {0, 6, 7, 8, 9}})
	q3 := adhoc{Template: "Q3", I: 0, J: 1}
	if !o.violated(q3) {
		t.Error("Q3 holds after the planted row")
	}
	if !o.witnessViolates(q3, map[string]string{"x": "v000", "y": "v001", "z": "v006"}) {
		t.Error("Q3 planted witness not recognised")
	}
	if o.witnessViolates(q3, map[string]string{"x": "v000", "y": "v001", "z": "v001"}) {
		t.Error("Q3 accepted a binding with y = z")
	}
	q1 := adhoc{Template: "Q1", X: 0, Set1: []int{1}}
	if !o.witnessViolates(q1, map[string]string{"x": "v000", "y": "v006"}) {
		t.Error("Q1 witness (v000, v006) not recognised")
	}
	if o.witnessViolates(q1, map[string]string{"x": "v000", "y": "v002"}) {
		t.Error("Q1 accepted a binding absent from REL")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10, 10.1, 9.9}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	for i, p := range parent {
		faster[i], slower[i] = p*0.7, p*1.5
	}
	if got := judge(parent, faster, true, 0.1); got != "improved" {
		t.Errorf("faster change judged %s", got)
	}
	if got := judge(parent, slower, true, 0.1); got != "regressed" {
		t.Errorf("slower change judged %s", got)
	}
	if got := judge(parent, parent, true, 0.1); got != "unchanged" {
		t.Errorf("identical change judged %s", got)
	}
	noisy := []float64{5, 15, 8, 12, 6, 14, 9, 11, 7, 13}
	if got := judge(noisy, noisy, true, 0.1); got != "unresolved" {
		t.Errorf("noisy parent judged %s", got)
	}
}
