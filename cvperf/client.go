package main

// client.go is the benchmark's HTTP side: one keep-alive client per
// closed-loop caller, timing each request from send to the last byte of
// the reply, and the /statsz and /metricsz readers behind the per-layer
// deltas.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

type httpClient struct {
	base string
	hc   *http.Client
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// post sends one JSON request and returns the status, the raw reply and
// the client-side latency.
func (c *httpClient) post(path string, traced bool, body any) (int, []byte, time.Duration, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, 0, err
	}
	url := c.base + path
	if traced {
		url += "?trace=1"
	}
	start := time.Now()
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, out, lat, nil
}

func (c *httpClient) getJSON(path string, into any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// check sends one /check and decodes the reply.
func (c *httpClient) check(req service.CheckRequest, traced bool) (service.CheckResponse, time.Duration, error) {
	var out service.CheckResponse
	status, body, lat, err := c.post("/check", traced, req)
	if err != nil {
		return out, 0, err
	}
	if status != http.StatusOK {
		return out, lat, fmt.Errorf("/check: status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, lat, fmt.Errorf("/check: %w", err)
	}
	return out, lat, nil
}

// witnesses sends one /witnesses and decodes the reply.
func (c *httpClient) witnesses(req service.WitnessRequest, traced bool) (service.WitnessResponse, time.Duration, error) {
	var out service.WitnessResponse
	status, body, lat, err := c.post("/witnesses", traced, req)
	if err != nil {
		return out, 0, err
	}
	if status != http.StatusOK {
		return out, lat, fmt.Errorf("/witnesses: status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, lat, fmt.Errorf("/witnesses: %w", err)
	}
	return out, lat, nil
}

// update sends one /update and decodes the reply.
func (c *httpClient) update(req service.UpdateRequest, traced bool) (service.UpdateResponse, time.Duration, error) {
	var out service.UpdateResponse
	status, body, lat, err := c.post("/update", traced, req)
	if err != nil {
		return out, 0, err
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, lat, fmt.Errorf("/update: status %d: %w", status, err)
	}
	if status != http.StatusOK {
		return out, lat, fmt.Errorf("/update: status %d: %s", status, out.Error)
	}
	return out, lat, nil
}

// counters is one reading of the server's monotonic counters, from
// /statsz and /metricsz, for per-layer deltas.
type counters struct {
	Checks, ReplicaChecks, Reroutes, Swaps    float64
	UpdateBatches, UpdateTuples               float64
	BDDChecks, FDFastPath, SQLFallbacks       float64
	Ops, NodesAllocated, GCRuns               float64
	WALBytes, SnapshotSeconds, SnapshotWrites float64
	PrimaryLiveNodes                          float64
	Tables                                    map[string]int
}

// readCounters reads the server's /statsz and /metricsz.
func (c *httpClient) readCounters() (counters, error) {
	var k counters
	var st service.StatszResponse
	if err := c.getJSON("/statsz", &st); err != nil {
		return k, err
	}
	k.Checks = float64(st.Requests.Checks)
	k.ReplicaChecks = float64(st.Replication.ReplicaChecks)
	k.Reroutes = float64(st.Replication.Reroutes)
	k.Swaps = float64(st.Replication.Swaps)
	k.UpdateBatches = float64(st.Requests.UpdateBatches)
	k.UpdateTuples = float64(st.Requests.UpdateTuples)
	k.BDDChecks = float64(st.Checker.BDDChecks)
	k.FDFastPath = float64(st.Checker.FDFastPath)
	k.SQLFallbacks = float64(st.Checker.SQLFallbacks)
	k.Ops = float64(st.Kernel.Ops)
	k.NodesAllocated = float64(st.Kernel.NodesAllocated)
	k.GCRuns = float64(st.Kernel.GCRuns)
	k.PrimaryLiveNodes = float64(st.PrimaryKernel.LiveNodes)
	k.Tables = map[string]int{}
	for _, t := range st.Tables {
		k.Tables[t.Name] = t.Rows
	}
	m, err := c.metricsz()
	if err != nil {
		return k, err
	}
	k.WALBytes = m["cv_wal_bytes_total"]
	k.SnapshotSeconds = m["cv_snapshot_write_seconds_sum"]
	k.SnapshotWrites = m["cv_snapshot_write_seconds_count"]
	return k, nil
}

// metricsz reads the unlabelled series of /metricsz.
func (c *httpClient) metricsz() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
