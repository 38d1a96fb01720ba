package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/machine"
	"rskip/internal/server"
)

// size scales the workloads; tiny cuts N and iterations about 20x so
// the smoke test stays fast.
type size struct {
	sweepN      int // replicas per sweep campaign
	daemonN     int // replicas per daemon campaign
	daemonBatch int
	runScale    string // /v1/run input scale, and the probes' perf scale
	fabricN     int    // replicas per fabric campaign
	fabricShard int
	regionN     int // incremental replicas per region
	warms       int // incremental warm analyses per cycle
	edits       int // incremental edits per cycle
	setupReps   int // set-ups per run; setup_s is their median
	probeN      int // replicas per bench x scheme in the layer probes
	calSamples  int // calibration loop runs per calibration
}

var sizes = map[string]size{
	"full": {sweepN: 1000, daemonN: 200, daemonBatch: 50, runScale: "perf",
		fabricN: 1000, fabricShard: 50, regionN: 250, warms: 10, edits: 3,
		setupReps: 15, probeN: 250, calSamples: 5},
	"tiny": {sweepN: 50, daemonN: 20, daemonBatch: 5, runScale: "fi",
		fabricN: 100, fabricShard: 25, regionN: 12, warms: 2, edits: 1,
		setupReps: 1, probeN: 12, calSamples: 1},
}

// The paper's reference sweep: two benchmarks under the four schemes
// of Fig 9.
var (
	sweepBenches = []string{"conv1d", "sgemm"}
	sweepSchemes = []core.Scheme{core.Unsafe, core.SWIFT, core.SWIFTR, core.RSkip}
)

// wireScheme is the rskipd spelling of a scheme.
var wireScheme = map[core.Scheme]string{
	core.Unsafe: "unsafe", core.SWIFT: "swift", core.SWIFTR: "swiftr",
	core.RSkip: "rskip",
}

// nproc is the load every phase is sized against: campaign workers,
// daemon workers and client counts never exceed it.
func nproc() int { return runtime.GOMAXPROCS(0) }

// derive maps the workload seed and a label to an independent
// positive seed, so every generated input and fault plan follows from
// -seed alone.
func derive(seed int64, label ...any) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, l := range label {
		fmt.Fprint(h, "/", l)
	}
	x := h.Sum64()
	// splitmix64 finalizer: spreads nearby labels apart.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>1) | 1
}

// coreConfig is the campaign default rskipfi users get: the paper's
// AR20 deployment on the compiled backend.
func coreConfig() (core.Config, error) {
	cfg := core.DefaultConfig()
	b, err := machine.ParseBackend("compiled")
	cfg.Backend = b
	return cfg, err
}

// configJSON is the wire form of coreConfig.
var configJSON = map[string]any{"backend": "compiled"}

// trainSeeds are the first n training inputs, as rskipfi and rskipd
// pick them.
func trainSeeds(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = bench.TrainSeed(i)
	}
	return seeds
}

// trainFor is the number of training inputs rskipd uses for scheme s:
// only RSkip consumes a trained profile.
func trainFor(s core.Scheme, n int) int {
	if s == core.RSkip {
		return n
	}
	return 0
}

// buildTrained builds b (through the build cache) and, for n > 0,
// trains it on the first n training inputs at scale.
func buildTrained(ctx context.Context, r *run, b bench.Benchmark, n int, scale bench.Scale) (*core.Program, error) {
	cfg, err := coreConfig()
	if err != nil {
		return nil, err
	}
	_, end := r.span(ctx, "core.Build", "bench", b.Name)
	p, err := core.Build(b, cfg)
	end()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return p, nil
	}
	_, end = r.span(ctx, "core.Train", "bench", b.Name)
	err = p.Train(trainSeeds(n), scale)
	end()
	return p, err
}

// parseScale maps the wire scale names "fi" and "perf" to bench
// scales.
func parseScale(s string) bench.Scale {
	if s == "perf" {
		return bench.ScalePerf
	}
	return bench.ScaleFI
}

// daemon is an in-process rskipd on a loopback listener, optionally
// with a fabric worker joined to it.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	stopW  context.CancelFunc
	worker chan error
	client *http.Client
}

// startDaemon serves a fresh rskipd with nproc campaign workers and
// checkpoints under dir. With worker set, a fabric worker with one
// injection worker joins it over loopback.
func startDaemon(dir string, worker bool) (*daemon, error) {
	srv, err := server.New(server.Config{Workers: nproc(), CheckpointDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Minute},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	if worker {
		w, err := server.NewWorker(server.WorkerConfig{
			Join: d.url, Name: "bench-worker", Poll: 50 * time.Millisecond, Workers: 1,
			Log: func(string, ...any) {},
		})
		if err != nil {
			_ = d.stop() // the worker error is the one to report
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		d.stopW = cancel
		d.worker = make(chan error, 1)
		go func() { d.worker <- w.Run(ctx) }()
	}
	return d, nil
}

// stop stops the worker, the listener and the daemon, and waits for
// each to finish.
func (d *daemon) stop() error {
	var errs []error
	if d.stopW != nil {
		d.stopW()
		if err := <-d.worker; err != nil && !errors.Is(err, context.Canceled) {
			errs = append(errs, fmt.Errorf("worker: %w", err))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		errs = append(errs, err)
	}
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	if err := d.srv.Drain(ctx); err != nil {
		errs = append(errs, err)
	}
	d.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// call sends one request with an optional JSON body and returns the
// status and body.
func (d *daemon) call(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// post sends a JSON request, requires a 2xx answer and decodes it into
// out (when non-nil).
func (d *daemon) post(ctx context.Context, path string, body, out any) error {
	status, data, err := d.call(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("POST %s: HTTP %d: %s", path, status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// campaignEvent is the part of a progress stream line the benchmark
// reads. Result stays raw so results compare byte for byte.
type campaignEvent struct {
	State  string          `json:"state"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// submission is a campaign's 202 answer.
type submission struct {
	ID        string `json:"id"`
	StatusURL string `json:"status_url"`
	StreamURL string `json:"stream_url"`
}

// submit posts a campaign request.
func (d *daemon) submit(ctx context.Context, r *run, req map[string]any) (submission, error) {
	ctx, end := r.span(ctx, "server.POST /v1/campaigns", "scheme", req["scheme"])
	defer end()
	var sub submission
	err := d.post(ctx, "/v1/campaigns", req, &sub)
	return sub, err
}

// wait reads a campaign's progress stream up to the terminal line,
// which it returns. A terminal state other than done is an error.
func (d *daemon) wait(ctx context.Context, r *run, sub submission) (campaignEvent, error) {
	ctx, end := r.span(ctx, "server.GET /v1/campaigns/{id}/stream")
	defer end()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+sub.StreamURL, nil)
	if err != nil {
		return campaignEvent{}, err
	}
	resp, err := d.client.Do(hreq)
	if err != nil {
		return campaignEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return campaignEvent{}, fmt.Errorf("stream %s: HTTP %d", sub.ID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev campaignEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return campaignEvent{}, fmt.Errorf("stream %s: %w", sub.ID, err)
		}
		switch ev.State {
		case "done":
			return ev, nil
		case "failed", "cancelled":
			return ev, fmt.Errorf("campaign %s ended %s: %s", sub.ID, ev.State, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return campaignEvent{}, fmt.Errorf("stream %s: %w", sub.ID, err)
	}
	return campaignEvent{}, fmt.Errorf("stream %s ended without a terminal line", sub.ID)
}

// campaign submits a campaign and waits for its terminal line.
func (d *daemon) campaign(ctx context.Context, r *run, req map[string]any) (campaignEvent, error) {
	sub, err := d.submit(ctx, r, req)
	if err != nil {
		return campaignEvent{}, err
	}
	return d.wait(ctx, r, sub)
}

// compile warms the daemon's build cache with one benchmark.
func (d *daemon) compile(ctx context.Context, r *run, name string) error {
	ctx, end := r.span(ctx, "server.POST /v1/compile", "bench", name)
	defer end()
	return d.post(ctx, "/v1/compile", map[string]any{"bench": name, "config": configJSON}, nil)
}

// tempDir makes a fresh directory under the run's scratch space.
func (r *run) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(r.tmp, prefix+"-*")
}

// deadline reports whether another repetition lasting last would end
// past the run's measured window that started at start.
func (r *run) deadline(start time.Time, last time.Duration) bool {
	return time.Since(start)+last > time.Duration(r.opts.seconds*float64(time.Second))
}
