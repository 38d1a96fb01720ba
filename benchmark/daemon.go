package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
)

// The daemon workload is rskipd under nproc closed-loop clients that
// run in lockstep rounds. Each client iteration posts one fault-free
// /v1/run at perf scale and then one small campaign (submit, then the
// progress stream up to its terminal line) for the same bench and
// scheme. Small jobs make the per-job overhead a visible share: HTTP
// and JSON, the build-cache lookup, the per-request RSkip retrain, the
// profile run, a checkpoint write per batch and the advisory forecast
// on submit. /v1/run keeps the cycle model on, so it is the leg that
// timing-off replicas must not move.

// daemonTrain is rskipd's default number of training inputs.
const daemonTrain = 2

// daemonPlans is the number of fault-plan seeds per request kind.
const daemonPlans = 8

// daemonKind maps a rotation index to a request kind: bench
// alternates, scheme rotates.
func daemonKind(k int) (string, core.Scheme) {
	return sweepBenches[k%len(sweepBenches)], sweepSchemes[(k/len(sweepBenches))%len(sweepSchemes)]
}

var numDaemonKinds = len(sweepBenches) * len(sweepSchemes)

func (r *run) runRequest(k int) map[string]any {
	b, s := daemonKind(k)
	return map[string]any{"bench": b, "scheme": wireScheme[s], "scale": r.size.runScale,
		"seed": int(derive(r.opts.seed, "run-input", k) % 1000), "config": configJSON}
}

// campaignRequest is the campaign of kind k with fault-plan seed j.
// The clients cycle through daemonPlans seeds per kind, so a run
// averages over several plan sets (a Hang replica costs fifty ordinary
// ones, so one plan set's cost swings with its few hangs) while the
// in-process references stay few.
func (r *run) campaignRequest(k, j int) map[string]any {
	b, s := daemonKind(k)
	return map[string]any{"bench": b, "scheme": wireScheme[s], "n": r.size.daemonN,
		"batch": r.size.daemonBatch, "workers": 1,
		"seed": derive(r.opts.seed, "daemon-plans", k, j), "config": configJSON}
}

// runResult is the part of a /v1/run answer checked against the
// in-process reference.
type runResult struct {
	Instrs        uint64 `json:"instrs"`
	Cycles        uint64 `json:"cycles"`
	OutputMatches bool   `json:"output_matches"`
}

// daemonSetup starts a daemon from a cold build cache and warms the
// cache with both benchmarks, as a long-lived daemon would be.
func daemonSetup(ctx context.Context, r *run, worker bool, benches ...string) (*daemon, error) {
	core.ResetBuildCache()
	dir, err := r.tempDir("ck")
	if err != nil {
		return nil, err
	}
	_, end := r.span(ctx, "server.New")
	d, err := startDaemon(dir, worker)
	end()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		if err := d.compile(ctx, r, b); err != nil {
			_ = d.stop() // the compile error is the one to report
			return nil, err
		}
	}
	return d, nil
}

// setupDaemon repeats the daemon set-up setupReps times, recording each
// as a setup_s sample, and keeps the last daemon. Stopping the previous
// daemon is not timed.
func setupDaemon(r *run, worker bool, benches ...string) (*daemon, error) {
	var d *daemon
	err := r.setupBlock(func() (time.Duration, error) {
		if d != nil {
			err := d.stop()
			d = nil
			if err != nil {
				return 0, err
			}
		}
		return timeIt(func() error {
			var err error
			d, err = daemonSetup(r.ctx, r, worker, benches...)
			return err
		})
	})
	return d, err
}

func runDaemon(r *run) error {
	d, err := setupDaemon(r, false, sweepBenches...)
	if err != nil {
		return err
	}
	defer func() { r.checkErr(d.stop(), "daemon shutdown") }()

	// The clients run in rounds: each sends one /v1/run and then one
	// campaign, and the next round starts when every client is done,
	// after a host-speed calibration. So every request's timing scales
	// by the host speed measured right around it, and each kind always
	// shares the daemon with the same kind of the other clients. The
	// round ends by collecting its garbage, and each of its requests is
	// charged an equal share of that collection.
	clients := nproc()
	runs := map[int][]runResult{}
	camps := map[[2]int][]json.RawMessage{} // by kind and plan seed index
	start := time.Now()
	var last time.Duration
	for round := 0; round == 0 || !r.deadline(start, last); round++ {
		t := time.Now()
		res := make([]daemonIteration, clients)
		var gcShare time.Duration
		speed, _ := r.hostSpeed(func() error {
			var wg sync.WaitGroup
			for c := range res {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					i := round + c*numDaemonKinds/clients
					res[c] = r.daemonIteration(d, c, i%numDaemonKinds, i/numDaemonKinds%daemonPlans)
				}(c)
			}
			wg.Wait()
			gcShare = collectGarbage() / time.Duration(2*clients)
			return nil
		})
		last = time.Since(t)

		for _, it := range res {
			r.request("run/"+it.kind, scaled(it.runTook+gcShare, speed))
			campaign := scaled(it.campaignTook+gcShare, speed)
			r.request("campaign/"+it.kind, campaign)
			if it.runOK {
				runs[it.k] = append(runs[it.k], it.run)
			}
			if it.campaignOK {
				camps[[2]int{it.k, it.j}] = append(camps[[2]int{it.k, it.j}], it.campaign.Result)
				// runs_per_s is the campaign leg's rate with every
				// client busy on campaigns.
				r.rate("campaign/"+it.kind, clients*r.size.daemonN, campaign)
			}
		}
	}

	// References, computed after the timed phase: every request kind
	// the clients sent, run in-process without HTTP.
	for k, got := range runs {
		want, err := runReference(r, k)
		if !r.checkErr(err, "run reference") {
			continue
		}
		for _, g := range got {
			r.check(g == want, "/v1/run kind %d = %+v, in-process %+v", k, g, want)
		}
	}
	for kj, got := range camps {
		want, err := campaignReference(r, kj[0], kj[1])
		if !r.checkErr(err, "campaign reference") {
			continue
		}
		for _, g := range got {
			var res campaignJSON
			err := json.Unmarshal(g, &res)
			r.check(err == nil && res.equal(want), "campaign %v = %s, in-process %+v", kj, g, want)
		}
	}
	return nil
}

// daemonIteration is one client's iteration: /v1/run request k, then
// campaign request (k, j), with their outcomes and unscaled latencies.
type daemonIteration struct {
	k, j         int
	kind         string // bench/scheme of k
	run          runResult
	runOK        bool
	runTook      time.Duration
	campaign     campaignEvent
	campaignOK   bool
	campaignTook time.Duration
}

func (r *run) daemonIteration(d *daemon, client, k, j int) daemonIteration {
	b, s := daemonKind(k)
	kind := b + "/" + s.String()
	ctx, end := r.span(r.ctx, "bench.client", "client", client, "kind", kind)
	defer end()
	it := daemonIteration{k: k, j: j, kind: kind}

	rctx, rend := r.span(ctx, "server.POST /v1/run", "kind", kind)
	t := time.Now()
	err := d.post(rctx, "/v1/run", r.runRequest(k), &it.run)
	it.runTook = time.Since(t)
	rend()
	it.runOK = r.checkErr(err, "/v1/run "+kind)

	t = time.Now()
	it.campaign, err = d.campaign(ctx, r, r.campaignRequest(k, j))
	it.campaignTook = time.Since(t)
	it.campaignOK = r.checkErr(err, "campaign "+kind)
	return it
}

// runReference is /v1/run request k executed in-process: build, train
// at the request's scale for RSkip, then the golden and scheme runs.
func runReference(r *run, k int) (runResult, error) {
	name, s := daemonKind(k)
	b, err := bench.ByName(name)
	if err != nil {
		return runResult{}, err
	}
	req := r.runRequest(k)
	scale := parseScale(r.size.runScale)
	p, err := buildTrained(r.ctx, r, b, trainFor(s, daemonTrain), scale)
	if err != nil {
		return runResult{}, err
	}
	inst := b.Gen(bench.TestSeed(req["seed"].(int)), scale)
	golden := p.Run(core.Unsafe, inst, core.RunOpts{})
	o := p.Run(s, inst, core.RunOpts{})
	if golden.Err != nil || o.Err != nil {
		return runResult{}, fmt.Errorf("reference run %s %s: %v %v", name, s, golden.Err, o.Err)
	}
	return runResult{Instrs: o.Result.Instrs, Cycles: o.Result.Cycles,
		OutputMatches: slices.Equal(o.Output, golden.Output)}, nil
}

// campaignReference is campaign request (k, j) as an in-process
// fault.Campaign over the daemon's inputs (test input 0 at FI scale).
func campaignReference(r *run, k, j int) (fault.Result, error) {
	name, s := daemonKind(k)
	b, err := bench.ByName(name)
	if err != nil {
		return fault.Result{}, err
	}
	p, err := buildTrained(r.ctx, r, b, trainFor(s, daemonTrain), bench.ScaleFI)
	if err != nil {
		return fault.Result{}, err
	}
	req := r.campaignRequest(k, j)
	ctx, end := r.span(r.ctx, "fault.Campaign", "reference", k)
	defer end()
	return fault.Campaign(ctx, p, s, b.Gen(bench.TestSeed(0), bench.ScaleFI), fault.Config{
		N: req["n"].(int), Seed: req["seed"].(int64), Workers: nproc(), Batch: req["batch"].(int)})
}

// campaignJSON is the wire result of a campaign, as much of it as the
// reference can be compared with.
type campaignJSON struct {
	Scheme    string         `json:"scheme"`
	N         int            `json:"n"`
	Requested int            `json:"requested"`
	Counts    map[string]int `json:"counts"`
	Fired     int            `json:"fired"`
	FalseNeg  int            `json:"false_neg"`
	Recovered int            `json:"recovered"`
}

func (c campaignJSON) equal(res fault.Result) bool {
	if c.Scheme != res.Scheme.String() || c.N != res.N || c.Requested != res.Requested ||
		c.Fired != res.Fired || c.FalseNeg != res.FalseNeg || c.Recovered != res.Recovered {
		return false
	}
	for cl := fault.Correct; cl < fault.NumClasses; cl++ {
		if c.Counts[cl.String()] != res.Counts[cl] {
			return false
		}
	}
	return len(c.Counts) == int(fault.NumClasses)
}
