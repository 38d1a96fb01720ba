package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fabric"
	"rskip/internal/fault"
	"rskip/internal/server"
)

// FuzzFabricWire posts arbitrary bodies to the three fabric endpoints
// of a daemon that holds one distributed campaign no local loop works
// on, then lets a real worker finish it. "$JOB" in a body stands for
// the campaign's job ID. No body may panic the daemon or draw a 5xx,
// and the campaign must end with fault.Campaign's counts. Only a
// completion from the worker the fuzzed lease call made the shard's
// holder may instead fail the campaign, on a payload it names as
// rejected: a refused payload from anyone else is answered 409 and
// leaves the shard to its holder.
func FuzzFabricWire(f *testing.F) {
	b, err := bench.ByName("conv1d")
	if err != nil {
		f.Fatal(err)
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	want, err := fault.Campaign(context.Background(), p, core.Unsafe, b.Gen(bench.TestSeed(0), bench.ScaleFI),
		fault.Config{N: 20, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][3]string{
		{`{"worker":"w1"}`, `{"worker":"w1","job_id":"$JOB","shard":0}`, `{"worker":"w1","job_id":"$JOB","shard":0,"payload":{"key":"k","lo":0,"hi":5,"records":[]}}`},
		{`{}`, `{"worker":"w1","job_id":"$JOB","shard":-1}`, `{"worker":"w1","job_id":"$JOB","shard":3}`},
		{`{"worker":""}`, `{"job_id":"c-000000000000","shard":1}`, `{"worker":"w2","job_id":"$JOB","shard":1,"payload":null}`},
		{`not json`, `{"worker":"w1","job_id":"$JOB","shard":99}`, `{"worker":"w1","job_id":"$JOB","shard":2,"payload":"x"}`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]), []byte(seed[2]))
	}
	f.Fuzz(func(t *testing.T, lease, heartbeat, complete []byte) {
		s, err := server.New(server.Config{Workers: 1, LeaseTTL: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
			ts.Close()
		}()
		id := submitCampaign(t, ts, map[string]any{"bench": "conv1d", "scheme": "unsafe", "n": 20, "seed": 3,
			"distributed": true, "shard_size": 5, "local_workers": -1})
		waitLeasing(t, ts)
		var (
			req     fabric.WireLeaseRequest
			granted fabric.WireLease
			cp      fabric.WireComplete
			leased  bool
		)
		for _, call := range []struct {
			path string
			body []byte
		}{{"lease", lease}, {"heartbeat", heartbeat}, {"complete", complete}} {
			body := bytes.ReplaceAll(call.body, []byte("$JOB"), []byte(id))
			resp, err := http.Post(ts.URL+"/v1/fabric/"+call.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if call.path == "lease" && resp.StatusCode == http.StatusOK {
				leased = json.Unmarshal(body, &req) == nil && json.NewDecoder(resp.Body).Decode(&granted) == nil
			}
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				t.Fatalf("POST /v1/fabric/%s %q: status %d", call.path, body, resp.StatusCode)
			}
			if call.path == "complete" && json.Unmarshal(body, &cp) != nil {
				cp = fabric.WireComplete{}
			}
		}
		holder := leased && cp.Worker == req.Worker && cp.JobID == granted.JobID && cp.Shard == granted.Shard.ID

		w, err := server.NewWorker(server.WorkerConfig{Join: ts.URL, Name: "fuzz-worker", Poll: 5 * time.Millisecond,
			Log: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		stopped := make(chan struct{})
		go func() { w.Run(ctx); close(stopped) }()
		st := waitFor(t, ts, id, 60*time.Second, terminal)
		cancel()
		<-stopped
		switch st.State {
		case "done":
			for c := fault.Correct; c < fault.NumClasses; c++ {
				if st.Result.Counts[c.String()] != want.Counts[c] {
					t.Fatalf("campaign ended with counts %v, fault.Campaign %v", st.Result.Counts, want.Counts)
				}
			}
		case "failed":
			if !holder || !strings.Contains(st.Error, "payload rejected") {
				t.Fatalf("campaign failed (completion from the lease holder: %v): %s", holder, st.Error)
			}
		default:
			t.Fatalf("campaign ended %q: %s", st.State, st.Error)
		}
	})
}

// A completion whose payload the ledger refuses, posted by a worker
// that holds no lease, is answered 409 and leaves the shard to be
// leased and completed as usual: the job ends with fault.Campaign's
// counts.
func TestFabricStrayCompletionRefused(t *testing.T) {
	b, err := bench.ByName("conv1d")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fault.Campaign(context.Background(), p, core.Unsafe, b.Gen(bench.TestSeed(0), bench.ScaleFI),
		fault.Config{N: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{Workers: 1})
	id := submitCampaign(t, ts, map[string]any{"bench": "conv1d", "scheme": "unsafe", "n": 20, "seed": 3,
		"distributed": true, "shard_size": 5, "local_workers": -1})
	waitLeasing(t, ts)
	body := `{"worker":"x","job_id":"` + id + `","shard":0,"payload":"x"}`
	resp, err := http.Post(ts.URL+"/v1/fabric/complete", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || errCode(t, raw) != "payload_refused" {
		t.Fatalf("stray completion: status %d, body %v; want 409 payload_refused", resp.StatusCode, raw)
	}

	w, err := server.NewWorker(server.WorkerConfig{Join: ts.URL, Name: "w", Poll: 5 * time.Millisecond,
		Log: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() { w.Run(ctx); close(stopped) }()
	st := waitFor(t, ts, id, 60*time.Second, terminal)
	cancel()
	<-stopped
	if st.State != "done" {
		t.Fatalf("campaign ended %q after a stray completion: %s", st.State, st.Error)
	}
	for c := fault.Correct; c < fault.NumClasses; c++ {
		if st.Result.Counts[c.String()] != want.Counts[c] {
			t.Fatalf("campaign ended with counts %v, fault.Campaign %v", st.Result.Counts, want.Counts)
		}
	}
}

// TestFabricCompleteRequiresPayload refuses a wire completion without
// a payload: the ledger would take it for its own lease loop's and
// read that shard's records from the coordinator's executor, which has
// not run them (or, with a local loop, may be writing them).
func TestFabricCompleteRequiresPayload(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	id := submitCampaign(t, ts, map[string]any{"bench": "conv1d", "scheme": "unsafe", "n": 20, "seed": 3,
		"distributed": true, "shard_size": 5, "local_workers": -1})
	waitLeasing(t, ts)
	var raw map[string]any
	code := postJSON(t, ts.URL+"/v1/fabric/complete", map[string]any{"worker": "w", "job_id": id, "shard": 0}, &raw)
	if code != http.StatusBadRequest || errCode(t, raw) != "missing_payload" {
		t.Fatalf("payload-less completion: status %d, body %v; want 400 missing_payload", code, raw)
	}
	if st := getStatus(t, ts, id); st.State != "running" {
		t.Fatalf("campaign is %q after a refused completion, want running", st.State)
	}
}

// waitLeasing waits until the daemon's one distributed campaign has
// prepared and offers its shards.
func waitLeasing(t *testing.T, ts *httptest.Server) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var h struct {
			FabricJobs int `json:"fabric_jobs"`
		}
		doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h)
		if h.FabricJobs == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the distributed campaign never started leasing")
		}
	}
}
