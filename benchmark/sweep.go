package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
)

// The sweep workload is Fig 9 as rskipfi users run it: fault.Campaign
// over conv1d and sgemm under UNSAFE, SWIFT, SWIFT-R and RSkip AR20,
// N replicas each with the SEU mix, nproc workers, the default batch
// and no checkpoint. One pass is those eight campaigns. Nearly all of
// its time is injected replicas in machine and the fault run loop; it
// involves no HTTP, persistence or fabric.

// sweepTrain is rskipfi's default number of training inputs.
const sweepTrain = 3

// sweepProgram is one benchmark of the sweep, built and trained.
type sweepProgram struct {
	b    bench.Benchmark
	p    *core.Program
	inst bench.Instance
}

// planSeed is the fault-plan seed of the program's campaigns in pass
// of a run at seed.
func (sp sweepProgram) planSeed(seed int64, pass int) int64 {
	return derive(seed, "sweep-plans", sp.b.Name, pass)
}

// sweepSetup builds and trains the sweep's programs from a cold build
// cache and draws their inputs.
func sweepSetup(ctx context.Context, r *run) ([]sweepProgram, error) {
	core.ResetBuildCache()
	var progs []sweepProgram
	for _, name := range sweepBenches {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := buildTrained(ctx, r, b, sweepTrain, bench.ScaleFI)
		if err != nil {
			return nil, err
		}
		progs = append(progs, sweepProgram{b: b, p: p,
			inst: b.Gen(derive(r.opts.seed, "sweep-input", name), bench.ScaleFI)})
	}
	return progs, nil
}

// sweepConfig is the campaign configuration of a sweep pass.
func sweepConfig(r *run, sp sweepProgram, pass int) fault.Config {
	return fault.Config{N: r.size.sweepN, Seed: sp.planSeed(r.opts.seed, pass), Workers: nproc()}
}

// sweepCampaign runs one campaign of a sweep pass and records its
// latency and replica rate under its bench/scheme key.
func sweepCampaign(ctx context.Context, r *run, sp sweepProgram, s core.Scheme, pass int) (string, fault.Result, error) {
	key := sp.b.Name + "/" + s.String()
	cfg := sweepConfig(r, sp, pass)
	var res fault.Result
	d, err := r.timedRep(func() error {
		cctx, end := r.span(ctx, "fault.Campaign", "campaign", key)
		defer end()
		var err error
		res, err = fault.Campaign(cctx, sp.p, s, sp.inst, cfg)
		return err
	})
	if !r.checkErr(err, "campaign "+key) {
		return key, res, err
	}
	r.request(key, d)
	r.rate(key, cfg.N, d)
	return key, res, nil
}

func runSweep(r *run) error {
	ctx := r.ctx
	var progs []sweepProgram
	err := r.setupBlock(func() (time.Duration, error) {
		return timeIt(func() error {
			var err error
			progs, err = sweepSetup(ctx, r)
			return err
		})
	})
	if err != nil {
		return err
	}

	// The campaigns run in pass order until the measured time is up, so
	// the last pass may be partial: a pass takes about 8 s on a loaded
	// host, and stopping at a pass boundary would leave a fifth of the
	// run unmeasured. Every pass draws fresh fault plans: a Hang replica
	// costs fifty ordinary ones, so a run that repeated one plan set
	// would swing with that set's few hangs.
	kinds := len(progs) * len(sweepSchemes)
	kind := func(i int) (sweepProgram, core.Scheme) {
		return progs[i/len(sweepSchemes)%len(progs)], sweepSchemes[i%len(sweepSchemes)]
	}
	first := map[string]fault.Result{}
	start := time.Now()
	var last time.Duration
	for i := 0; i < kinds || !r.deadline(start, last); i++ {
		sp, s := kind(i)
		t := time.Now()
		key, res, err := sweepCampaign(ctx, r, sp, s, i/kinds)
		if err != nil {
			return err
		}
		last = time.Since(t)
		if i < kinds {
			first[key] = res
		}
	}

	// The first pass again, untimed: the same plans must reproduce the
	// same results under parallel workers.
	for i := 0; i < kinds; i++ {
		sp, s := kind(i)
		key := sp.b.Name + "/" + s.String()
		cctx, end := r.span(ctx, "fault.Campaign", "repeat", key)
		res, err := fault.Campaign(cctx, sp.p, s, sp.inst, sweepConfig(r, sp, 0))
		end()
		if !r.checkErr(err, "repeat campaign "+key) {
			return err
		}
		r.check(reflect.DeepEqual(res, first[key]),
			"sweep %s repeated = %+v, first run %+v", key, res, first[key])
	}
	want, err := loadExpected()
	if err != nil {
		return err
	}
	if r.opts.seed == want.Seed {
		if r.size.sweepN == want.N {
			for key, res := range first {
				got := campaignFixture(res)
				r.check(reflect.DeepEqual(got, want.Campaigns[key]),
					"sweep %s = %+v, fixture says %+v", key, got, want.Campaigns[key])
			}
		}
		got, err := faultFree(ctx, r)
		if err != nil {
			return err
		}
		for key, g := range got {
			w, ok := want.FaultFree[key]
			r.check(ok && g == w, "fault-free %s = %+v, fixture says %+v", key, g, w)
		}
	}
	return nil
}

// expected is testdata/expected.json: the outcomes the sweep must
// reproduce at the default seed. No speedup may change a simulated
// counter or a fault outcome, so a mismatch is a failed operation.
type expected struct {
	Seed      int64                      `json:"seed"`
	N         int                        `json:"n"`
	Campaigns map[string]campaignCounts  `json:"campaigns"`
	FaultFree map[string]faultFreeCounts `json:"fault_free"`
}

// campaignCounts pins one campaign's outcome distribution.
type campaignCounts struct {
	Counts    map[string]int `json:"counts"`
	Fired     int            `json:"fired"`
	FalseNeg  int            `json:"false_neg"`
	Recovered int            `json:"recovered"`
}

// faultFreeCounts pins one fault-free run's simulated counters.
type faultFreeCounts struct {
	Instrs uint64 `json:"instrs"`
	Cycles uint64 `json:"cycles"`
}

func campaignFixture(res fault.Result) campaignCounts {
	c := campaignCounts{Counts: map[string]int{}, Fired: res.Fired, FalseNeg: res.FalseNeg, Recovered: res.Recovered}
	for cl := fault.Correct; cl < fault.NumClasses; cl++ {
		c.Counts[cl.String()] = res.Counts[cl]
	}
	return c
}

//go:embed testdata/expected.json
var expectedJSON []byte

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return &e, nil
}

// faultFree runs every sweep bench x scheme fault-free at the FI and
// /v1/run scales (perf at full size), each program trained at the
// scale it runs, on the sweep's inputs.
func faultFree(ctx context.Context, r *run) (map[string]faultFreeCounts, error) {
	out := map[string]faultFreeCounts{}
	for _, name := range sweepBenches {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, scale := range []string{"fi", r.size.runScale} {
			p, err := buildTrained(ctx, r, b, sweepTrain, parseScale(scale))
			if err != nil {
				return nil, err
			}
			inst := b.Gen(derive(r.opts.seed, "sweep-input", name), parseScale(scale))
			for _, s := range sweepSchemes {
				_, end := r.span(ctx, "core.Run", "scheme", s.String())
				o := p.Run(s, inst, core.RunOpts{})
				end()
				if o.Err != nil {
					return nil, fmt.Errorf("fault-free %s %s %s: %w", name, s, scale, o.Err)
				}
				out[name+"/"+s.String()+"/"+scale] = faultFreeCounts{o.Result.Instrs, o.Result.Cycles}
			}
		}
	}
	return out, nil
}

// updateExpected rewrites the fixture from one full-size pass at the
// default seed.
func updateExpected(o options) error {
	o.seed, o.size, o.workload = defaultSeed, "full", "sweep"
	r := newRun(o, "", os.Stderr)
	progs, err := sweepSetup(r.ctx, r)
	if err != nil {
		return err
	}
	e := expected{Seed: defaultSeed, N: r.size.sweepN, Campaigns: map[string]campaignCounts{}}
	for _, sp := range progs {
		for _, s := range sweepSchemes {
			key, res, err := sweepCampaign(r.ctx, r, sp, s, 0)
			if err != nil {
				return err
			}
			e.Campaigns[key] = campaignFixture(res)
		}
	}
	if e.FaultFree, err = faultFree(r.ctx, r); err != nil {
		return err
	}
	path := filepath.Join("testdata", "expected.json")
	if _, err := os.Stat("testdata"); err != nil {
		path = filepath.Join("benchmark", "testdata", "expected.json")
	}
	if err := writeJSON(path, &e); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
