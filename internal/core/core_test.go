package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
)

// buildCurriculum creates the STUDENT/COURSE/TAKES database of the paper's
// introduction.
func buildCurriculum(t *testing.T) *relation.Catalog {
	t.Helper()
	cat := relation.NewCatalog()
	student, err := cat.CreateTable("STUDENT", []relation.Column{
		{Name: "student_id", Domain: "student_id"},
		{Name: "department", Domain: "department"},
		{Name: "contact", Domain: "contact"},
	})
	if err != nil {
		t.Fatal(err)
	}
	course, err := cat.CreateTable("COURSE", []relation.Column{
		{Name: "course_id", Domain: "course_id"},
		{Name: "area", Domain: "area"},
	})
	if err != nil {
		t.Fatal(err)
	}
	takes, err := cat.CreateTable("TAKES", []relation.Column{
		{Name: "student_id", Domain: "student_id"},
		{Name: "course_id", Domain: "course_id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	student.Insert("s1", "CS", "c1")
	student.Insert("s2", "CS", "c2")
	student.Insert("s3", "Math", "c3")
	course.Insert("cs101", "Programming")
	course.Insert("cs102", "Theory")
	course.Insert("m101", "Algebra")
	takes.Insert("s1", "cs101")
	takes.Insert("s2", "cs102") // s2 is in CS but takes no Programming course
	takes.Insert("s3", "m101")
	return cat
}

const curriculumConstraint = `
	forall s, z: STUDENT(s, "CS", z) =>
	    exists c: COURSE(c, "Programming") and TAKES(s, c)
`

func newChecker(t *testing.T, cat *relation.Catalog) *core.Checker {
	t.Helper()
	chk := core.New(cat, core.Options{})
	for _, table := range []string{"STUDENT", "COURSE", "TAKES"} {
		if _, err := chk.BuildIndex(table, table, nil, core.OrderProbConverge); err != nil {
			t.Fatalf("BuildIndex(%s): %v", table, err)
		}
	}
	return chk
}

func TestPaperExampleViolated(t *testing.T) {
	cat := buildCurriculum(t)
	chk := newChecker(t, cat)
	f, err := logic.Parse(curriculumConstraint)
	if err != nil {
		t.Fatal(err)
	}
	ct := logic.Constraint{Name: "cs_programming", F: f}
	res := chk.CheckOne(ct)
	if res.Err != nil {
		t.Fatalf("CheckOne: %v", res.Err)
	}
	if res.Method != core.MethodBDD {
		t.Fatalf("expected BDD evaluation, got %s (fallback: %v)", res.Method, res.FallbackReason)
	}
	if !res.Violated {
		t.Fatal("constraint should be violated: s2 takes no Programming course")
	}
	// SQL agrees.
	rows, err := chk.ViolatingRows(ct)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Fatalf("expected exactly 1 violating binding, got %d", rows.Len())
	}
	vals := rows.Decode(0)
	found := false
	for _, v := range vals {
		if v == "s2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violating binding should involve s2, got %v", vals)
	}
	// BDD witnesses agree.
	ws, err := chk.ViolationWitnesses(ct, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 {
		t.Fatal("no BDD witnesses for a violated constraint")
	}
	foundW := false
	for _, w := range ws {
		for _, v := range w.Values {
			if v == "s2" {
				foundW = true
			}
		}
	}
	if !foundW {
		t.Fatalf("BDD witnesses should involve s2, got %v", ws)
	}
}

func TestPaperExampleRepaired(t *testing.T) {
	cat := buildCurriculum(t)
	chk := newChecker(t, cat)
	// Repair: s2 enrolls in the programming course.
	if err := chk.InsertTuple("TAKES", "s2", "cs101"); err != nil {
		t.Fatal(err)
	}
	f, err := logic.Parse(curriculumConstraint)
	if err != nil {
		t.Fatal(err)
	}
	res := chk.CheckOne(logic.Constraint{Name: "cs_programming", F: f})
	if res.Err != nil {
		t.Fatalf("CheckOne: %v", res.Err)
	}
	if res.Violated {
		t.Fatal("constraint should hold after the repair")
	}
	// Breaking it again by removing the tuple.
	if err := chk.DeleteTuple("TAKES", "s2", "cs101"); err != nil {
		t.Fatal(err)
	}
	res = chk.CheckOne(logic.Constraint{Name: "cs_programming", F: f})
	if !res.Violated {
		t.Fatal("constraint should be violated again after the delete")
	}
}

func TestMembershipConstraint(t *testing.T) {
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{
		{Name: "city", Domain: "city"},
		{Name: "areacode", Domain: "areacode"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cust.Insert("Toronto", "416")
	cust.Insert("Toronto", "647")
	cust.Insert("Oshawa", "905")
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("CUST", "CUST", nil, core.OrderSchema); err != nil {
		t.Fatal(err)
	}
	f, err := logic.Parse(`forall c, a: CUST(c, a) and c = "Toronto" => a in {"416", "647", "905"}`)
	if err != nil {
		t.Fatal(err)
	}
	res := chk.CheckOne(logic.Constraint{Name: "toronto_codes", F: f})
	if res.Err != nil || res.Violated {
		t.Fatalf("constraint should hold: violated=%v err=%v", res.Violated, res.Err)
	}
	// Insert a violating tuple; the constraint flips.
	if err := chk.InsertTuple("CUST", "Toronto", "212"); err != nil {
		t.Fatal(err)
	}
	res = chk.CheckOne(logic.Constraint{Name: "toronto_codes", F: f})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Violated {
		t.Fatal("constraint should be violated after inserting (Toronto, 212)")
	}
}

func TestFunctionalDependencyConstraint(t *testing.T) {
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("PHONE", []relation.Column{
		{Name: "areacode", Domain: "areacode"},
		{Name: "state", Domain: "state"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cust.Insert("416", "ON")
	cust.Insert("905", "ON")
	cust.Insert("212", "NY")
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("PHONE", "PHONE", nil, core.OrderSchema); err != nil {
		t.Fatal(err)
	}
	// areacode → state as a first-order constraint.
	f, err := logic.Parse(`forall a, s1, s2: PHONE(a, s1) and PHONE(a, s2) => s1 = s2`)
	if err != nil {
		t.Fatal(err)
	}
	ct := logic.Constraint{Name: "fd", F: f}
	res := chk.CheckOne(ct)
	if res.Err != nil || res.Violated {
		t.Fatalf("FD should hold: violated=%v err=%v", res.Violated, res.Err)
	}
	if err := chk.InsertTuple("PHONE", "416", "NY"); err != nil {
		t.Fatal(err)
	}
	res = chk.CheckOne(ct)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Violated {
		t.Fatal("FD should be violated after (416, NY)")
	}
	if res.Method != core.MethodBDD {
		t.Fatalf("FD should be BDD-checkable, fell back: %v", res.FallbackReason)
	}
}

func TestSQLFallbackWithoutIndex(t *testing.T) {
	cat := buildCurriculum(t)
	chk := core.New(cat, core.Options{}) // no indices built
	f, err := logic.Parse(curriculumConstraint)
	if err != nil {
		t.Fatal(err)
	}
	res := chk.CheckOne(logic.Constraint{Name: "cs_programming", F: f})
	if res.Err != nil {
		t.Fatalf("CheckOne: %v", res.Err)
	}
	if res.Method != core.MethodSQL || !res.FellBack {
		t.Fatalf("expected SQL fallback, got method=%s", res.Method)
	}
	if !res.Violated {
		t.Fatal("SQL fallback must detect the violation")
	}
}

func TestBudgetFallback(t *testing.T) {
	cat := buildCurriculum(t)
	chk := core.New(cat, core.Options{NodeBudget: 8}) // absurdly small
	// Index builds themselves fail under this budget; constraints still work.
	_, err := chk.BuildIndex("STUDENT", "STUDENT", nil, core.OrderSchema)
	if err == nil {
		t.Skip("index unexpectedly fit an 8-node budget")
	}
	f, err := logic.Parse(curriculumConstraint)
	if err != nil {
		t.Fatal(err)
	}
	res := chk.CheckOne(logic.Constraint{Name: "cs_programming", F: f})
	if res.Err != nil {
		t.Fatalf("CheckOne: %v", res.Err)
	}
	if res.Method != core.MethodSQL {
		t.Fatal("expected SQL fallback under a tiny node budget")
	}
	if !res.Violated {
		t.Fatal("fallback must still detect the violation")
	}
}

func TestImplicationCityState(t *testing.T) {
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{
		{Name: "city", Domain: "city"},
		{Name: "state", Domain: "state"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cust.Insert("Toronto", "Ontario")
	cust.Insert("Oshawa", "Ontario")
	cust.Insert("Newark", "NJ")
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("CUST", "CUST", nil, core.OrderProbConverge); err != nil {
		t.Fatal(err)
	}
	f, err := logic.Parse(`forall c, s: CUST(c, s) and c = "Toronto" => s = "Ontario"`)
	if err != nil {
		t.Fatal(err)
	}
	ct := logic.Constraint{Name: "toronto_ontario", F: f}
	if res := chk.CheckOne(ct); res.Err != nil || res.Violated {
		t.Fatalf("should hold: %+v", res)
	}
	if err := chk.InsertTuple("CUST", "Toronto", "NJ"); err != nil {
		t.Fatal(err)
	}
	if res := chk.CheckOne(ct); res.Err != nil || !res.Violated {
		t.Fatalf("should be violated: %+v", res)
	}
}

func TestIndexOverProjection(t *testing.T) {
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{
		{Name: "areacode", Domain: "areacode"},
		{Name: "number", Domain: "number"},
		{Name: "city", Domain: "city"},
		{Name: "state", Domain: "state"},
		{Name: "zipcode", Domain: "zipcode"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cust.Insert("416", "5550001", "Toronto", "ON", "M5V")
	cust.Insert("905", "5550002", "Oshawa", "ON", "L1G")
	cust.Insert("212", "5550003", "NYC", "NY", "10001")
	chk := core.New(cat, core.Options{})
	// Index over a projection, named differently from the table; the
	// constraint references the index name with the projection's arity.
	if _, err := chk.BuildIndex("NCS", "CUST", []string{"areacode", "city", "state"}, core.OrderProbConverge); err != nil {
		t.Fatal(err)
	}
	f, err := logic.Parse(`forall a, c, s: NCS(a, c, s) and s = "ON" => a in {"416", "647", "905"}`)
	if err != nil {
		t.Fatal(err)
	}
	ct := logic.Constraint{Name: "on_codes", F: f}
	res := chk.CheckOne(ct)
	if res.Err != nil || res.Violated {
		t.Fatalf("should hold: %+v", res)
	}
	if res.Method != core.MethodBDD {
		t.Fatalf("projection index should be used, fell back: %v", res.FallbackReason)
	}
}

// TestChainedCanonicalBlockRename pins a rename-chain scenario found by the
// differential harness (testdata seed 505 in internal/difftest): under a
// data-driven ordering, the variable vb claims the index's own c2 block, so
// evaluating the second occurrence of T1 needs the simultaneous substitution
// {c0→c2, c2→scratch}. A per-block fallback that binds c0 to the c2 block
// while c2 is still in the BDD's support computes the diagonal T1(x,·,x)
// instead of the rename, yielding spurious violation witnesses.
func TestChainedCanonicalBlockRename(t *testing.T) {
	cat := relation.NewCatalog()
	tab, err := cat.CreateTable("T1", []relation.Column{
		{Name: "c0", Domain: "d3"},
		{Name: "c1", Domain: "d1"},
		{Name: "c2", Domain: "d3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab.Insert("D3_0", "D1_3", "D3_1")
	tab.Insert("D3_3", "D1_3", "D3_0")
	tab.Insert("D3_1", "D1_3", "D3_0")
	chk := core.New(cat, core.Options{NodeBudget: -1, RandomSeed: 860045})
	if _, err := chk.BuildIndex("T1", "T1", nil, core.OrderProbConverge); err != nil {
		t.Fatal(err)
	}
	f, err := logic.Parse(`T1("D3_0", va, vb) or T1(vb, "D1_3", ve)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := logic.Constraint{Name: "chain", F: f}
	res := chk.CheckOne(ct)
	if res.Err != nil {
		t.Fatalf("CheckOne: %v", res.Err)
	}
	if res.Method != core.MethodBDD {
		t.Fatalf("expected BDD evaluation, got %s (fallback: %v)", res.Method, res.FallbackReason)
	}
	if !res.Violated {
		t.Fatal("constraint should be violated")
	}
	// 1×3×3 bindings minus the five satisfying either disjunct.
	ws, err := chk.ViolationWitnesses(ct, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("expected 4 violation witnesses, got %d: %v", len(ws), ws)
	}
}

// TestDeleteKeepsSurvivingProjectionsPerIndex covers bag semantics across
// several indices of one table: deleting a tuple must remove its projection
// from an index where no other row shares it, and keep it in an index where
// a different row still projects onto the same values.
func TestDeleteKeepsSurvivingProjectionsPerIndex(t *testing.T) {
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{{Name: "city"}, {Name: "areacode"}, {Name: "state"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]string{
		{"Toronto", "416", "Ontario"},
		{"Toronto", "647", "Ontario"},
		{"Newark", "973", "NJ"},
	} {
		cust.Insert(row...)
	}
	chk := core.New(cat, core.Options{})
	cs, err := chk.BuildIndex("CS", "CUST", []string{"city", "state"}, core.OrderSchema)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := chk.BuildIndex("CA", "CUST", []string{"city", "areacode"}, core.OrderSchema)
	if err != nil {
		t.Fatal(err)
	}
	code := func(col int, v string) int32 {
		c, ok := cust.ColumnDomain(col).Code(v)
		if !ok {
			t.Fatalf("value %q not interned", v)
		}
		return c
	}
	deleted := []int32{code(0, "Toronto"), code(1, "416"), code(2, "Ontario")}
	if err := chk.DeleteTuple("CUST", "Toronto", "416", "Ontario"); err != nil {
		t.Fatal(err)
	}
	// (Toronto, Ontario) survives through the 647 row; (Toronto, 416) has no
	// other row.
	if !cs.Contains(deleted) {
		t.Fatal("CS lost (Toronto, Ontario) although another row still projects onto it")
	}
	if ca.Contains(deleted) {
		t.Fatal("CA kept (Toronto, 416) although no row projects onto it any more")
	}
	// Deleting the last Toronto row removes the projection from CS too.
	if err := chk.DeleteTuple("CUST", "Toronto", "647", "Ontario"); err != nil {
		t.Fatal(err)
	}
	if cs.Contains(deleted) {
		t.Fatal("CS kept (Toronto, Ontario) after its last row was deleted")
	}
	if !ca.Contains([]int32{code(0, "Newark"), code(1, "973"), code(2, "NJ")}) {
		t.Fatal("CA lost an untouched row")
	}
}
