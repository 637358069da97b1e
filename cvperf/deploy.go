package main

// deploy.go assembles cvserved's deployments in-process through the public
// Go APIs, exactly as cmd/cvserved's cold boot does, and serves each on an
// ephemeral loopback port. Only what a deployment needs is set (a data
// directory); everything else is the program's default, so a changed
// default is measured as users meet it.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/ordering"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/store"
)

// deployKind names the two deployment shapes.
type deployKind int

const (
	deploySingle  deployKind = iota // core.Checker + service.New
	deployDurable                   // the same with a data directory (WAL + snapshots)
)

// deploySpec is what a workload asks of its deployment.
type deploySpec struct {
	kind        deployKind
	indices     []indexSpec // single/durable: the logical indices to build
	constraints string      // registered constraints
	dataRoot    string      // durable: where to make the data directory
}

// deployment is one running server.
type deployment struct {
	url     string
	srv     *service.Server
	st      *store.Store
	dataDir string
	http    *http.Server
	served  chan error
}

// setupTimes are one set-up's stage timings, in seconds.
type setupTimes struct {
	Total, IndexBuild, Serve, Snapshot float64
}

// deploy builds and starts a deployment over cat, which it takes over. The
// returned total runs from the generated inputs to a server that has
// answered /healthz.
func deploy(spec deploySpec, cat *relation.Catalog) (*deployment, setupTimes, error) {
	var tm setupTimes
	start := time.Now()
	cts, err := logic.ParseConstraints(spec.constraints)
	if err != nil {
		return nil, tm, fmt.Errorf("parsing registered constraints: %w", err)
	}
	d := &deployment{}
	chk := core.New(cat, core.Options{NodeBudget: core.DefaultNodeBudget})
	t0 := time.Now()
	for _, ix := range spec.indices {
		if _, err := chk.BuildIndex(ix.Name, ix.Table, ix.Cols, core.OrderProbConverge); err != nil {
			return nil, tm, fmt.Errorf("index %s: %w", ix.Name, err)
		}
	}
	tm.IndexBuild = time.Since(t0).Seconds()
	opts := service.Options{DefaultTimeout: 30 * time.Second, WriteTimeout: 2 * time.Minute}
	if spec.kind == deployDurable {
		dir, err := os.MkdirTemp(spec.dataRoot, "cvperf-data-")
		if err != nil {
			return nil, tm, err
		}
		d.dataDir = dir
		st, err := store.Open(dir, store.Options{Fsync: store.FsyncBatch})
		if err != nil {
			d.close()
			return nil, tm, err
		}
		d.st = st
		t0 := time.Now()
		if err := st.WriteSnapshot(chk, store.RenderConstraints(cts), 1); err != nil {
			d.close()
			return nil, tm, fmt.Errorf("sealing the initial snapshot: %w", err)
		}
		tm.Snapshot = time.Since(t0).Seconds()
		opts.Store, opts.InitialEpoch = st, 1
	}
	t0 = time.Now()
	d.srv, err = service.New(chk, cts, opts)
	if err != nil {
		d.close()
		return nil, tm, err
	}
	tm.Serve = time.Since(t0).Seconds()
	if err := d.listen(d.srv.Handler()); err != nil {
		d.close()
		return nil, tm, err
	}
	tm.Total = time.Since(start).Seconds()
	return d, tm, nil
}

// listen serves handler on an ephemeral loopback port with cvserved's
// default server timeouts and waits until /healthz answers.
func (d *deployment) listen(handler http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.url = "http://" + ln.Addr().String()
	d.http = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	d.served = make(chan error, 1)
	go func() { d.served <- d.http.Serve(ln) }()
	resp, err := http.Get(d.url + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	return nil
}

// close stops the HTTP server, then the program's workers, and removes the
// data directory. It waits for every goroutine it started.
func (d *deployment) close() error {
	var errs []error
	if d.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := d.http.Shutdown(ctx); err != nil {
			d.http.Close()
		}
		cancel()
		if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if d.st != nil {
		if err := d.st.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if d.dataDir != "" {
		if err := os.RemoveAll(d.dataDir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// timeOrdering times ordering.ProbConverge on the projection each index is
// built over, as BuildIndex computes it. The projections are materialized
// before the clock starts.
func timeOrdering(cat *relation.Catalog, indices []indexSpec) (float64, error) {
	scratch := cat.Clone()
	var projs []*relation.Table
	for i, ix := range indices {
		t := scratch.Table(ix.Table)
		if t == nil {
			return 0, fmt.Errorf("no table %s", ix.Table)
		}
		cols := ix.Cols
		if cols == nil {
			cols = t.ColumnNames()
		}
		specs := make([]relation.Column, len(cols))
		idx := make([]int, len(cols))
		for j, c := range cols {
			idx[j] = t.ColumnIndex(c)
			specs[j] = relation.Column{Name: c, Domain: t.ColumnDomain(idx[j]).Name()}
		}
		p, err := scratch.CreateTable(fmt.Sprintf("cvperf$proj%d", i), specs)
		if err != nil {
			return 0, err
		}
		row := make([]int32, len(idx))
		for r := 0; r < t.Len(); r++ {
			for j, c := range idx {
				row[j] = t.Row(r)[c]
			}
			p.InsertCodes(row)
		}
		projs = append(projs, p)
	}
	start := time.Now()
	for _, p := range projs {
		ordering.ProbConverge(p, nil)
	}
	return time.Since(start).Seconds(), nil
}
