package service

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
)

// TestFailedReplicaCatchUpReroutesToPrimary forces a replica's catch-up to
// fail after an acknowledged update: the check must still answer at the
// acknowledged state, from the primary, never from the older version the
// replica holds.
func TestFailedReplicaCatchUpReroutesToPrimary(t *testing.T) {
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{{Name: "city"}, {Name: "areacode"}, {Name: "state"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]string{{"Toronto", "416", "Ontario"}, {"Newark", "973", "NJ"}} {
		cust.Insert(row...)
	}
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("CUST", "CUST", nil, core.OrderSchema); err != nil {
		t.Fatal(err)
	}
	cts, err := logic.ParseConstraints(`constraint toronto_ontario:
	    forall a, s: CUST("Toronto", a, s) => s = "Ontario".`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(chk, cts, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	check := func() core.Result {
		t.Helper()
		rep, err := s.submitCheck(ctx, cts, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.results[0]
	}
	if res := check(); res.Violated || s.nReplicaChecks.Load() != 1 {
		t.Fatalf("initial check: violated=%v, replica checks %d; want a holding verdict from the replica",
			res.Violated, s.nReplicaChecks.Load())
	}

	// Poison the chain the next round extends with an update no replica can
	// apply. The worker goroutine reads s.ver only after receiving the
	// update job below, so this write happens before that read.
	poisoned, err := s.ver.Advance(s.chk, 1, []core.Update{{Table: "CUST", Op: core.UpdateDelete, Values: []string{"Newark", "416", "Ontario"}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.ver = poisoned

	if n, err := s.submitUpdate(ctx, []core.Update{{Table: "CUST", Op: core.UpdateInsert, Values: []string{"Toronto", "416", "NJ"}}}, nil); err != nil || n != 1 {
		t.Fatalf("update: applied %d, %v", n, err)
	}
	if res := check(); !res.Violated || res.Err != nil {
		t.Fatalf("check after the acknowledged update: violated=%v err=%v; want violated", res.Violated, res.Err)
	}
	if got := s.nReplicaChecks.Load(); got != 1 {
		t.Fatalf("replica checks = %d, want 1: the replica that failed to catch up must not answer", got)
	}
}
