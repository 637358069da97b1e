package main

// table1.go is the table1-adhoc workload: every /check carries one fresh
// ad-hoc constraint from the Q1–Q5 templates, and after every few checks a
// /witnesses asks for violating bindings of a violated one.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

// table1Op is one operation of a client's round.
type table1Op struct {
	q        adhoc
	witness  bool
	violated bool // the oracle's verdict
}

type table1Workload struct {
	in       *table1Inputs
	oracle   *table1Oracle
	rng      *rand.Rand
	cls      []*httpClient
	perRound int // checks per client per round
	// witnessEvery: after this many checks, one /witnesses follows.
	witnessEvery int

	plan [][]table1Op
	// deferred witness replies, checked in finish.
	mu      sync.Mutex
	pending []pendingWitness
	// texts sent in the traced phase, for the parse replay.
	tracedTexts []adhoc
}

type pendingWitness struct {
	q  adhoc
	ws []service.Witness
}

func (w *table1Workload) clients() int { return len(w.cls) }

// prepare draws the round's constraints and answers them with the oracle.
// Every client's list has the same shape: checks cycling the templates,
// and after every witnessEvery checks a /witnesses on one violated
// constraint of that group, the templates taking turns (a fresh violated
// one is drawn when none of the group was violated).
func (w *table1Workload) prepare(rd *round) error {
	w.plan = make([][]table1Op, len(w.cls))
	for c := range w.cls {
		var ops, group []table1Op
		turn := c
		for k := 0; k < rd.ops(w.perRound, 2*w.witnessEvery); k++ {
			q := w.in.drawAdhoc((k+c)%5, w.rng)
			op := table1Op{q: q, violated: w.oracle.violated(q)}
			ops = append(ops, op)
			group = append(group, op)
			if len(group) < w.witnessEvery {
				continue
			}
			var pick *adhoc
			for t := 0; t < 5 && pick == nil; t++ {
				want := fmt.Sprintf("Q%d", (turn+t)%5+1)
				for i := range group {
					if group[i].violated && group[i].q.Template == want {
						pick = &group[i].q
						break
					}
				}
			}
			for pick == nil {
				q := w.in.drawAdhoc(turn%5, w.rng)
				if w.oracle.violated(q) {
					pick = &q
				}
			}
			ops = append(ops, table1Op{q: *pick, witness: true, violated: true})
			group = group[:0]
			turn++
		}
		w.plan[c] = ops
	}
	return nil
}

func (w *table1Workload) client(rd *round, c int) error {
	cl := w.cls[c]
	for _, op := range w.plan[c] {
		start := time.Now()
		if op.witness {
			resp, lat, err := cl.witnesses(service.WitnessRequest{Text: op.q.Text}, rd.traced)
			if err != nil {
				return err
			}
			rd.count("witnesses", false)
			rd.record("witnesses", op.q.Template, c, start, lat, 0)
			rd.traceOp(tracedOp{Kind: "witnesses", Name: op.q.Template, Latency: lat, Trace: resp.Trace})
			if len(resp.Witnesses) == 0 {
				return fmt.Errorf("%s: violated constraint returned no witnesses: %s", op.q.Template, op.q.Text)
			}
			w.mu.Lock()
			w.pending = append(w.pending, pendingWitness{q: op.q, ws: resp.Witnesses})
			w.mu.Unlock()
			continue
		}
		resp, lat, err := cl.check(service.CheckRequest{Text: op.q.Text}, rd.traced)
		if err != nil {
			return err
		}
		rd.count("check", false)
		rd.record("check", op.q.Template, c, start, lat, 0)
		if len(resp.Results) != 1 || resp.Results[0].Error != "" {
			return fmt.Errorf("%s: bad check reply %+v", op.q.Template, resp.Results)
		}
		res := resp.Results[0]
		rd.traceOp(tracedOp{Kind: "check", Name: op.q.Template, Latency: lat, Trace: resp.Trace, FellBack: res.FellBack})
		if res.Violated != op.violated {
			return fmt.Errorf("%s: server says violated=%v, oracle says %v: %s", op.q.Template, res.Violated, op.violated, op.q.Text)
		}
		if rd.traced {
			w.mu.Lock()
			w.tracedTexts = append(w.tracedTexts, op.q)
			w.mu.Unlock()
		}
	}
	return nil
}

// finish checks every returned witness against REL/REF.
func (w *table1Workload) finish(rd *round) error {
	w.mu.Lock()
	pending := w.pending
	w.pending = nil
	w.mu.Unlock()
	for _, p := range pending {
		for _, wit := range p.ws {
			b, err := binding(wit)
			if err != nil {
				return err
			}
			if !w.oracle.witnessViolates(p.q, b) {
				return fmt.Errorf("%s: witness %v does not violate %s", p.q.Template, b, p.q.Text)
			}
		}
	}
	return nil
}

// binding maps a witness's variable names to its values.
func binding(w service.Witness) (map[string]string, error) {
	if len(w.Vars) != len(w.Values) {
		return nil, fmt.Errorf("witness with %d vars and %d values", len(w.Vars), len(w.Values))
	}
	b := make(map[string]string, len(w.Vars))
	for i, v := range w.Vars {
		b[strings.TrimSpace(v)] = w.Values[i]
	}
	return b, nil
}
