package main

// cust.go is the customer-shaped traffic of the monitor and churn
// workloads: clients re-check registered constraints by name; under churn
// one client instead posts /update batches back to back, half inserts of
// fresh tuples and half deletes of present ones.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

type custMode int

const (
	modeMonitor custMode = iota
	modeChurn
)

// rowCapError is the text of the named sqlengine fault: the FD consequent
// c1 = c2 compiles to a domain product past sqlengine.MaxRows. When the
// BDD attempt before the SQL double-check has already run out of node
// budget (garbage left by earlier requests counts against it), the service
// reports that error instead, budgetError; the SQL stage behind it fails
// the same way.
const (
	rowCapError = "intermediate result exceeds the row cap"
	budgetError = "bdd: node budget exceeded"
)

type custWorkload struct {
	mode   custMode
	in     *custInputs
	oracle *custOracle
	cls    []*httpClient
	rng    *rand.Rand // the update stream

	checksPerRound  int // per checking client
	batchesPerRound int // churn: the updater's batches
	batchSize       int // tuples per batch, half deletes and half inserts
	witnessEvery    int // monitor: one /witnesses after this many checks

	names          []string // constraints the clients re-check, in rotation
	witnessTargets []string // monitor: constraints /witnesses asks about
	next           []int    // per-client rotation positions
	wnext          []int
	lastEpoch      []uint64

	mu sync.Mutex
	// history[e-1] holds the verdicts at epoch e; epoch 1 is the initial
	// state and each batch sent adds one.
	history     [][]bool
	sent, acked int
	batches     [][]service.UpdateTuple
	pending     []pendingCustWitness
}

type pendingCustWitness struct {
	name string
	ws   []service.Witness
}

func newCustWorkload(mode custMode, in *custInputs, cls []*httpClient, seed int64, sz sizes) *custWorkload {
	w := &custWorkload{
		mode: mode, in: in, oracle: newCustOracle(in), cls: cls,
		rng:       rand.New(rand.NewSource(seed ^ 0x5eed)),
		next:      make([]int, len(cls)),
		wnext:     make([]int, len(cls)),
		lastEpoch: make([]uint64, len(cls)),
		batchSize: 16,
	}
	w.history = [][]bool{w.oracle.verdicts()}
	// Clients rotate through five constraints. Without churn they are the
	// first five. Under churn cons_member is left out: its cold evaluation
	// after every swap (over a second) would leave a run too few checks
	// for a steady p95; city_home takes the free slot.
	skip := map[custMode]string{modeMonitor: cCityHome, modeChurn: cConsMember}[mode]
	for _, n := range custNames {
		if n != skip {
			w.names = append(w.names, n)
		}
	}
	for i := range cls {
		w.next[i] = 2 * i // the two readers start apart in the rotation
	}
	for _, n := range custNames {
		if n != cZipCity && w.oracle.violated(n) {
			w.witnessTargets = append(w.witnessTargets, n)
		}
	}
	if len(w.witnessTargets) == 0 {
		w.witnessTargets = []string{cStateAreas} // holds: the answer must be empty
	}
	switch mode {
	case modeMonitor:
		w.checksPerRound, w.witnessEvery = sz.MonChecks, 5
	case modeChurn:
		w.checksPerRound, w.batchesPerRound = sz.ChurnChecks, sz.ChurnBatches
	}
	return w
}

func (w *custWorkload) clients() int { return len(w.cls) }

func (w *custWorkload) prepare(*round) error { return nil }

func (w *custWorkload) client(rd *round, c int) error {
	if w.mode != modeMonitor && c == 0 {
		for b := 0; b < rd.ops(w.batchesPerRound, 4); b++ {
			if err := w.sendBatch(rd, c); err != nil {
				return err
			}
		}
		return nil
	}
	warm := 5
	if w.mode == modeMonitor {
		warm = 100
	}
	for k := 0; k < rd.ops(w.checksPerRound, warm); k++ {
		if err := w.checkOne(rd, c); err != nil {
			return err
		}
		if w.witnessEvery > 0 && (k+1)%w.witnessEvery == 0 {
			if err := w.witnessOne(rd, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// sendBatch draws one batch from the copy (deletes of present tuples,
// then inserts of fresh ones), books the verdicts of the epoch it will
// create, and posts it.
func (w *custWorkload) sendBatch(rd *round, c int) error {
	half := w.batchSize / 2
	ups := make([]service.UpdateTuple, 0, w.batchSize)
	w.mu.Lock()
	for i := 0; i < half; i++ {
		r := w.oracle.deleteAt(w.rng.Intn(len(w.oracle.rows)))
		ups = append(ups, service.UpdateTuple{Table: "CUST", Op: "delete", Values: r.values()})
	}
	for i := 0; i < half; i++ {
		r := drawCustomer(w.in.data, w.rng)
		w.oracle.insert(r)
		ups = append(ups, service.UpdateTuple{Table: "CUST", Op: "insert", Values: r.values()})
	}
	w.history = append(w.history, w.oracle.verdicts())
	w.sent++
	w.batches = append(w.batches, ups)
	w.mu.Unlock()

	start := time.Now()
	resp, lat, err := w.cls[c].update(service.UpdateRequest{Updates: ups}, rd.traced)
	if err != nil {
		return err
	}
	rd.count("update", false)
	rd.record("update", "batch", c, start, lat, len(ups))
	rd.traceOp(tracedOp{Kind: "update", Name: "batch", Latency: lat, Trace: resp.Trace, Tuples: len(ups)})
	if resp.Applied != len(ups) {
		return fmt.Errorf("update applied %d of %d tuples", resp.Applied, len(ups))
	}
	w.mu.Lock()
	w.acked++
	w.mu.Unlock()
	return nil
}

// checkOne re-checks the client's next registered constraint and compares
// the verdict with the copy's at every epoch the evaluation may have seen:
// from the last batch acknowledged before sending to the last batch sent
// before the reply.
func (w *custWorkload) checkOne(rd *round, c int) error {
	name := w.names[w.next[c]%len(w.names)]
	w.next[c]++
	w.mu.Lock()
	lo := uint64(1 + w.acked)
	w.mu.Unlock()
	start := time.Now()
	resp, lat, err := w.cls[c].check(service.CheckRequest{Constraints: []string{name}}, rd.traced)
	if err != nil {
		return err
	}
	rd.count("check", false)
	rd.record("check", name, c, start, lat, 0)
	if len(resp.Results) != 1 || resp.Results[0].Error != "" {
		return fmt.Errorf("%s: bad check reply %+v", name, resp.Results)
	}
	res := resp.Results[0]
	after := w.lastEpoch[c] != 0 && resp.Epoch > w.lastEpoch[c]
	w.lastEpoch[c] = resp.Epoch
	rd.traceOp(tracedOp{Kind: "check", Name: name, Latency: lat, Trace: resp.Trace, FellBack: res.FellBack, AfterSwap: after})
	return w.verifyVerdict(name, res.Violated, resp.Epoch, lo)
}

func (w *custWorkload) verifyVerdict(name string, violated bool, epoch, lo uint64) error {
	idx := -1
	for i, n := range custNames {
		if n == name {
			idx = i
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	hi := uint64(1 + w.sent)
	if w.mode != modeMonitor && (epoch < lo || epoch > hi) {
		return fmt.Errorf("%s: reply epoch %d outside [%d, %d]", name, epoch, lo, hi)
	}
	for e := lo; e <= hi; e++ {
		if w.history[e-1][idx] == violated {
			return nil
		}
	}
	return fmt.Errorf("%s: server says violated=%v, the copy disagrees at every epoch in [%d, %d]", name, violated, lo, hi)
}

// witnessOne asks for violating bindings of the client's next witness
// target; the bindings are checked against the copy in finish (monitor
// data never changes).
func (w *custWorkload) witnessOne(rd *round, c int) error {
	name := w.witnessTargets[w.wnext[c]%len(w.witnessTargets)]
	w.wnext[c]++
	start := time.Now()
	resp, lat, err := w.cls[c].witnesses(service.WitnessRequest{Constraint: name}, rd.traced)
	if err != nil {
		return err
	}
	rd.count("witnesses", false)
	rd.record("witnesses", name, c, start, lat, 0)
	rd.traceOp(tracedOp{Kind: "witnesses", Name: name, Latency: lat, Trace: resp.Trace})
	w.mu.Lock()
	w.pending = append(w.pending, pendingCustWitness{name: name, ws: resp.Witnesses})
	w.mu.Unlock()
	return nil
}

// finish checks the round's witnesses, then, on monitor, sends the round's
// one request that runs into the named sqlengine fault. churn sends no
// /witnesses at all: its rounds stay all checks and updates, and its runs
// do not spend 3 s a round on the failing request.
func (w *custWorkload) finish(rd *round) error {
	w.mu.Lock()
	pending := w.pending
	w.pending = nil
	w.mu.Unlock()
	for _, p := range pending {
		violated := w.oracle.violated(p.name)
		if violated && len(p.ws) == 0 {
			return fmt.Errorf("%s: violated constraint returned no witnesses", p.name)
		}
		if !violated && len(p.ws) != 0 {
			return fmt.Errorf("%s: holding constraint returned %d witnesses", p.name, len(p.ws))
		}
		for _, wit := range p.ws {
			b, err := binding(wit)
			if err != nil {
				return err
			}
			if !w.oracle.witnessViolates(p.name, b) {
				return fmt.Errorf("%s: witness %v does not violate the constraint", p.name, b)
			}
		}
	}
	if rd.phase == "warmup" || w.mode != modeMonitor {
		return nil
	}
	return w.zipCity(rd)
}

// zipCity sends the zip_city /witnesses that fails on the named fault:
// the constraint holds, the BDD finds no witnesses, and the service
// double-checks through SQL, whose plan exceeds the row cap. The expected
// failure counts as failed; any other failure, or a wrong answer, fails
// the run.
func (w *custWorkload) zipCity(rd *round) error {
	resp, _, err := w.cls[0].witnesses(service.WitnessRequest{Constraint: cZipCity}, false)
	if err != nil {
		if !strings.Contains(err.Error(), rowCapError) && !strings.Contains(err.Error(), budgetError) {
			return fmt.Errorf("zip_city: unexpected witnesses error: %w", err)
		}
		rd.count("witnesses", true)
		return nil
	}
	rd.count("witnesses", false)
	w.mu.Lock()
	holds := !w.oracle.violated(cZipCity)
	w.mu.Unlock()
	if holds && len(resp.Witnesses) != 0 {
		return fmt.Errorf("zip_city holds but returned %d witnesses", len(resp.Witnesses))
	}
	return nil
}
