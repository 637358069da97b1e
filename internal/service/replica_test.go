package service_test

// replica_test.go exercises the replicated read path at the service level:
// routing of /check and /witnesses through the pool, epoch handoffs after
// /update, aggregated /statsz counters, and the -race concurrency guarantee
// with at least two replicas.

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
)

func TestStatszReportsReplication(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Replicas: 2})

	// One check through the pool, one update (epoch handoff), one more check
	// so a worker demonstrably swaps to the new epoch.
	var resp service.CheckResponse
	if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
		t.Fatalf("check status %d", st)
	}
	var ur service.UpdateResponse
	if st := post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
		{Table: "CUST", Op: "insert", Values: []string{"Oshawa", "905", "Ontario"}},
	}}, &ur); st != http.StatusOK || ur.Applied != 1 {
		t.Fatalf("update: status %d, %+v", st, ur)
	}
	if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
		t.Fatalf("check status %d", st)
	}
	var wresp service.WitnessResponse
	if st := post(t, ts.URL+"/witnesses", service.WitnessRequest{Constraint: "nj_codes"}, &wresp); st != http.StatusOK {
		t.Fatalf("witnesses status %d", st)
	}
	if wresp.Method != "bdd" || len(wresp.Witnesses) == 0 {
		t.Fatalf("witnesses should come off a replica's BDD: %+v", wresp)
	}

	var stats service.StatszResponse
	if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK {
		t.Fatalf("statsz status %d", st)
	}
	repl := stats.Replication
	if repl.Replicas != 2 {
		t.Fatalf("replicas = %d, want 2", repl.Replicas)
	}
	if repl.Epoch < 2 {
		t.Fatalf("epoch = %d, want ≥ 2 after an update handoff", repl.Epoch)
	}
	if repl.ReplicaChecks < 2 || repl.ReplicaWitnesses < 1 {
		t.Fatalf("pool should have served the reads: %+v", repl)
	}
	if repl.Swaps < 1 {
		t.Fatalf("swaps = %d, want ≥ 1 (a worker must have materialized)", repl.Swaps)
	}
	if len(repl.Workers) != 2 {
		t.Fatalf("want 2 worker entries, got %+v", repl.Workers)
	}
	var jobs uint64
	var sawLatest bool
	for _, w := range repl.Workers {
		jobs += w.Jobs
		if w.Epoch == repl.Epoch {
			sawLatest = true
		}
		if w.Jobs > 0 && w.Kernel.LiveNodes < 2 {
			t.Fatalf("worker %d served jobs with an empty kernel: %+v", w.Worker, w)
		}
	}
	if jobs < 3 {
		t.Fatalf("worker jobs sum to %d, want ≥ 3 (2 checks + witnesses)", jobs)
	}
	if !sawLatest {
		t.Fatalf("no worker swapped to epoch %d: %+v", repl.Epoch, repl.Workers)
	}
	// The aggregate kernel view sums the primary and every replica.
	if stats.Kernel.LiveNodes < stats.PrimaryKernel.LiveNodes {
		t.Fatalf("aggregate kernel (%+v) smaller than primary (%+v)", stats.Kernel, stats.PrimaryKernel)
	}
	if stats.PrimaryKernel.LiveNodes <= 2 {
		t.Fatalf("primary kernel looks dead: %+v", stats.PrimaryKernel)
	}
	// Replica BDD decisions must show up in the aggregated checker counters:
	// 2 full checks × 2 constraints, all decided without SQL.
	if stats.Checker.BDDChecks < 4 {
		t.Fatalf("aggregated BDD checks = %d, want ≥ 4", stats.Checker.BDDChecks)
	}
}

// TestReplicaCatchUpCounters: a warm replica reaches each acknowledged
// epoch by applying that batch's tuples, so after its first materialization
// it never adopts a full copy again, and /statsz and /metricsz count both
// kinds of handoff.
func TestReplicaCatchUpCounters(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Replicas: 1})
	toggle := []string{"Toronto", "416", "NJ"}
	for i := 0; i < 5; i++ {
		if i > 0 {
			op := "insert"
			if i%2 == 0 {
				op = "delete"
			}
			var ur service.UpdateResponse
			if st := post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
				{Table: "CUST", Op: op, Values: toggle},
			}}, &ur); st != http.StatusOK || ur.Applied != 1 {
				t.Fatalf("update %d: status %d, %+v", i, st, ur)
			}
		}
		var resp service.CheckResponse
		if st := post(t, ts.URL+"/check", service.CheckRequest{Constraints: []string{"toronto_ontario"}}, &resp); st != http.StatusOK {
			t.Fatalf("check %d: status %d", i, st)
		}
		if got, want := resultsByName(t, resp)["toronto_ontario"].Violated, i%2 == 1; got != want {
			t.Fatalf("check %d: violated=%v, want %v", i, got, want)
		}
	}
	var stats service.StatszResponse
	if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK {
		t.Fatalf("statsz status %d", st)
	}
	repl := stats.Replication
	if repl.Swaps != 5 || repl.Adoptions != 1 || repl.CatchupTuples != 4 {
		t.Fatalf("swaps %d, adoptions %d, catch-up tuples %d; want 5, 1, 4", repl.Swaps, repl.Adoptions, repl.CatchupTuples)
	}
	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{"cv_replica_adoptions_total 1\n", "cv_replica_catchup_tuples_total 4\n"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metricsz lacks %q", want)
		}
	}
}

func TestReplicationDisabled(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Replicas: -1})
	var resp service.CheckResponse
	if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
		t.Fatalf("check status %d", st)
	}
	if r := resultsByName(t, resp)["nj_codes"]; !r.Violated || r.Method != "bdd" {
		t.Fatalf("primary path must still serve checks: %+v", r)
	}
	var stats service.StatszResponse
	if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK {
		t.Fatalf("statsz status %d", st)
	}
	if repl := stats.Replication; repl.Replicas != 0 || repl.ReplicaChecks != 0 {
		t.Fatalf("replication disabled but reported active: %+v", repl)
	}
	if stats.Kernel != stats.PrimaryKernel {
		t.Fatalf("without replicas the aggregate must equal the primary: %+v vs %+v",
			stats.Kernel, stats.PrimaryKernel)
	}
}

func TestReplicaReroutesBudgetFallbackToPrimary(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Replicas: 2})
	var resp service.CheckResponse
	st := post(t, ts.URL+"/check", service.CheckRequest{
		Constraints: []string{"nj_codes"},
		NodeBudget:  1,
	}, &resp)
	if st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	r := resultsByName(t, resp)["nj_codes"]
	if !r.FellBack || r.Method != "sql" || !r.Violated {
		t.Fatalf("want rerouted SQL fallback, got %+v", r)
	}
	var stats service.StatszResponse
	if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK {
		t.Fatalf("statsz status %d", st)
	}
	if stats.Replication.Reroutes < 1 {
		t.Fatalf("reroutes = %d, want ≥ 1", stats.Replication.Reroutes)
	}
	if stats.Checker.SQLFallbacks < 1 {
		t.Fatalf("the primary must have run the SQL fallback: %+v", stats.Checker)
	}
}

// TestReplicatedReadYourWrites pins the publish-before-ack guarantee on the
// pool path: with two replicas, a check submitted after an update's 200 OK
// must see the new epoch's data no matter which worker serves it.
func TestReplicatedReadYourWrites(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Replicas: 2})
	toggle := []string{"Toronto", "416", "NJ"} // violates toronto_ontario
	for i := 0; i < 6; i++ {
		op, want := "insert", true
		if i%2 == 1 {
			op, want = "delete", false
		}
		var ur service.UpdateResponse
		if st := post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
			{Table: "CUST", Op: op, Values: toggle},
		}}, &ur); st != http.StatusOK || ur.Applied != 1 {
			t.Fatalf("round %d %s: status %d, %+v", i, op, st, ur)
		}
		// Both workers must observe the acked state, not just one.
		for rep := 0; rep < 4; rep++ {
			var resp service.CheckResponse
			if st := post(t, ts.URL+"/check", service.CheckRequest{
				Constraints: []string{"toronto_ontario"},
			}, &resp); st != http.StatusOK {
				t.Fatalf("round %d check: status %d", i, st)
			}
			r := resultsByName(t, resp)["toronto_ontario"]
			if r.Violated != want {
				t.Fatalf("round %d: acked %s invisible to check (violated=%v, want %v)",
					i, op, r.Violated, want)
			}
			if r.Method != "bdd" {
				t.Fatalf("round %d: replica check fell off the BDD path: %+v", i, r)
			}
		}
	}
}

// TestConcurrentReplicatedChecksAndUpdates is the service half of the -race
// acceptance run: concurrent /check and /witnesses traffic served by a
// 2-replica pool while updates force epoch handoffs. The churned tuples are
// Ontario rows, so nj_codes stays violated and toronto_ontario stays
// satisfied at every epoch a reader can observe.
func TestConcurrentReplicatedChecksAndUpdates(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Replicas: 2, QueueDepth: 8})
	const (
		checkers = 6
		updaters = 4
		iters    = 10
	)
	var wg sync.WaitGroup
	errc := make(chan error, checkers+updaters)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}
	for g := 0; g < checkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if g%3 == 2 {
					var wresp service.WitnessResponse
					st := post(t, ts.URL+"/witnesses", service.WitnessRequest{Constraint: "nj_codes"}, &wresp)
					if st != http.StatusOK || len(wresp.Witnesses) == 0 {
						report("witness reader %d: status %d, %+v", g, st, wresp)
						return
					}
					continue
				}
				var resp service.CheckResponse
				if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
					report("checker %d: status %d", g, st)
					return
				}
				for _, r := range resp.Results {
					if r.Error != "" {
						report("checker %d: %s errored: %s", g, r.Name, r.Error)
						return
					}
					if r.Name == "nj_codes" && !r.Violated {
						report("checker %d: nj_codes not violated", g)
						return
					}
					if r.Name == "toronto_ontario" && r.Violated {
						report("checker %d: toronto_ontario violated", g)
						return
					}
				}
			}
		}(g)
	}
	churn := [][]string{
		{"Oshawa", "905", "Ontario"},
		{"Toronto", "647", "Ontario"},
	}
	for g := 0; g < updaters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			row := churn[g%len(churn)]
			for i := 0; i < iters; i++ {
				for _, op := range []string{"insert", "delete"} {
					var ur service.UpdateResponse
					st := post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
						{Table: "CUST", Op: op, Values: row},
					}}, &ur)
					if st != http.StatusOK || ur.Applied != 1 {
						report("updater %d: %s status %d, %+v", g, op, st, ur)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	var stats service.StatszResponse
	if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK {
		t.Fatalf("statsz status %d", st)
	}
	repl := stats.Replication
	if repl.Replicas != 2 {
		t.Fatalf("replicas = %d, want 2", repl.Replicas)
	}
	// Every update batch published a fresh version: the epoch must have
	// moved well past the bootstrap version.
	if repl.Epoch < 2 {
		t.Fatalf("epoch = %d: no handoff happened under update load", repl.Epoch)
	}
	if repl.ReplicaChecks == 0 && repl.ReplicaWitnesses == 0 {
		t.Fatalf("no read was served by the pool: %+v", repl)
	}
	if stats.Tables[0].Rows != 5 {
		t.Fatalf("table should be back at 5 seed rows, got %d", stats.Tables[0].Rows)
	}
	t.Logf("epoch %d, swaps %d, replica checks %d, witnesses %d, reroutes %d",
		repl.Epoch, repl.Swaps, repl.ReplicaChecks, repl.ReplicaWitnesses, repl.Reroutes)
}
