package replica

import (
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// TestChainStaysBounded: however many versions are published without a
// worker ever running a job, the chain reachable from the latest version
// spans at most two base intervals.
func TestChainStaysBounded(t *testing.T) {
	cat := relation.NewCatalog()
	tab, err := cat.CreateTable("T", []relation.Column{{Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	tab.Insert("x")
	primary := core.New(cat, core.Options{})
	if _, err := primary.BuildIndex("T", "T", nil, core.OrderSchema); err != nil {
		t.Fatal(err)
	}
	v, err := NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := New(2, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for epoch := uint64(2); epoch <= 5*maxHops; epoch++ {
		if v, err = v.Advance(primary, epoch, nil, 0); err != nil {
			t.Fatal(err)
		}
		pool.Publish(v)
	}
	n := 0
	for cur := pool.latest.Load(); cur != nil; cur = cur.prev.Load() {
		n++
	}
	if n > 2*maxHops {
		t.Fatalf("chain from the latest version holds %d versions, want at most %d", n, 2*maxHops)
	}
}
