package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"rskip/internal/core"
)

// The fabric workload is the real two-node wire path: the daemon plus
// one fabric worker joined over loopback. One client submits
// distributed campaigns (one coordinator lease loop and one wire
// worker, each with one injection worker) on conv1d under SWIFT-R and
// RSkip, one round after another. Shards are small enough that lease,
// heartbeat and complete JSON, the per-node executor prepare and the
// merge all show; the sweep bypasses all of it. After the timed phase
// each request runs again single-node with nproc workers, and the
// distributed result must equal it byte for byte as JSON.

var fabricSchemes = []core.Scheme{core.SWIFTR, core.RSkip}

const fabricBench = "conv1d"

// fabricRequest is the campaign of scheme s in a round, distributed
// or as its single-node reference arm.
func (r *run) fabricRequest(s core.Scheme, round int, distributed bool) map[string]any {
	req := map[string]any{"bench": fabricBench, "scheme": wireScheme[s], "n": r.size.fabricN,
		"seed": derive(r.opts.seed, "fabric-plans", s.String(), round), "config": configJSON}
	if distributed {
		req["distributed"] = true
		req["shard_size"] = r.size.fabricShard
		req["workers"] = 1
	} else {
		req["workers"] = nproc()
	}
	return req
}

func runFabric(r *run) error {
	d, err := setupDaemon(r, true, fabricBench)
	if err != nil {
		return err
	}
	defer func() { r.checkErr(d.stop(), "daemon shutdown") }()

	// Every round draws fresh fault plans: a worker keeps each plan's
	// executor and its finished records, so repeating a request would
	// measure that memo instead of the fabric.
	type done struct {
		s     core.Scheme
		round int
		ev    campaignEvent
	}
	var dist []done
	start := time.Now()
	var last time.Duration
	for round := 0; round == 0 || !r.deadline(start, last); round++ {
		t := time.Now()
		for _, s := range fabricSchemes {
			var ev campaignEvent
			took, err := r.timedRep(func() error {
				var err error
				ev, err = d.campaign(r.ctx, r, r.fabricRequest(s, round, true))
				return err
			})
			if !r.checkErr(err, "distributed campaign "+s.String()) {
				return err
			}
			kind := "distributed/" + s.String()
			r.request(kind, took)
			r.rate(kind, r.size.fabricN, took)
			dist = append(dist, done{s, round, ev})
		}
		last = time.Since(t)
	}

	// The reference arm, after the timed phase: each request again,
	// single-node with nproc workers.
	for _, x := range dist {
		ref, err := d.campaign(r.ctx, r, r.fabricRequest(x.s, x.round, false))
		if !r.checkErr(err, "single-node campaign "+x.s.String()) {
			continue
		}
		r.check(bytes.Equal(x.ev.Result, ref.Result),
			"distributed %s round %d = %s, single-node %s", x.s, x.round, x.ev.Result, ref.Result)
	}
	return nil
}

// fabricEfficiency runs one distributed and one single-node campaign
// of the same request and returns distributed over single-node runs/s.
func fabricEfficiency(ctx context.Context, r *run, d *daemon, n int) (float64, error) {
	s := core.SWIFTR
	dist := r.fabricRequest(s, -1, true)
	ref := r.fabricRequest(s, -1, false)
	dist["n"], ref["n"] = n, n
	t := time.Now()
	a, err := d.campaign(ctx, r, dist)
	if err != nil {
		return 0, err
	}
	distS := time.Since(t).Seconds()
	t = time.Now()
	b, err := d.campaign(ctx, r, ref)
	if err != nil {
		return 0, err
	}
	refS := time.Since(t).Seconds()
	if !bytes.Equal(a.Result, b.Result) {
		return 0, fmt.Errorf("distributed result %s differs from single-node %s", a.Result, b.Result)
	}
	return refS / distS, nil
}
