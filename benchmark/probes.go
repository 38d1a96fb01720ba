package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"rskip/internal/analysis"
	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/lower"
	"rskip/internal/machine"
	"rskip/internal/pass"
	"rskip/internal/result"
)

// The per-layer probes run after the workload in a traced run. Each
// times one module's public functions from outside the program, so
// the layer numbers need no instrumentation inside it. README.md maps
// every probe to the API it calls and to the end-to-end metric it
// should move.

// pipelineNames are the registered pass pipelines of the five schemes.
var pipelineNames = []struct {
	s    core.Scheme
	name string
}{
	{core.Unsafe, "unsafe"}, {core.SWIFT, "swift"}, {core.SWIFTR, "swiftr"},
	{core.RSkip, "rskip"}, {core.SWIFTRHard, "swiftrhard"},
}

// hangSchemes are the sweep schemes whose replicas hang at all. SWIFT
// and SWIFT-R hang in none of the 4,000 sweep replicas
// testdata/expected.json pins, so their share would read 0 on every
// run.
var hangSchemes = []core.Scheme{core.Unsafe, core.RSkip}

// layerDefs lists every per-layer metric a traced run reports.
func layerDefs() []metricDef {
	defs := []metricDef{
		{"lower.compile_ms", "ms"},
		{"pass.pipelines_ms", "ms"},
		{"machine.decode_ms", "ms"},
		{"core.build_cold_ms", "ms"},
		{"core.build_warm_us", "us"},
		{"train.train_ms.fi", "ms"},
		{"train.train_ms.perf", "ms"},
	}
	for _, s := range sweepSchemes {
		defs = append(defs,
			metricDef{"machine.clean_ns_per_instr." + s.String(), "ns/instr"},
			metricDef{"machine.replica_ns_per_instr." + s.String(), "ns/instr"},
			metricDef{"machine.replica_us_p50." + s.String(), "us"},
			metricDef{"machine.replica_us_p99." + s.String(), "us"},
			metricDef{"fault.profile_ms." + s.String(), "ms"})
	}
	for _, s := range hangSchemes {
		defs = append(defs, metricDef{"machine.hang_time_share." + s.String(), "ratio"})
	}
	return append(defs,
		metricDef{"machine.reset_us", "us"},
		metricDef{"fault.draw_plans_us", "us"},
		metricDef{"fault.engine_overhead_share", "ratio"},
		metricDef{"result.profile_trace_ms", "ms"},
		metricDef{"result.cache_get_us", "us"},
		metricDef{"result.cache_put_us", "us"},
		metricDef{"fabric.efficiency", "ratio"},
		metricDef{"fabric.lease_rtt_ms", "ms"},
		metricDef{"server.submit_ms", "ms"},
		metricDef{"server.status_ms", "ms"},
		metricDef{"server.run_overhead_ms", "ms"},
		metricDef{"trace.span_cost_ns", "ns"},
	)
}

// timed runs fn reps times and returns each duration in unit.
func timed(reps int, unit time.Duration, fn func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t))/float64(unit))
	}
	return out, nil
}

func probeLayers(ctx context.Context, r *run) error {
	for _, probe := range []func(context.Context, *run) error{
		probeBuild, probeTrain, probeMachine, probeReplicas, probeResult, probeServer, probeTrace,
	} {
		if err := probe(ctx, r); err != nil {
			return err
		}
	}
	return nil
}

// probeBuild times the build stages one by one: lower.Compile, the five
// scheme pipelines, machine.CompileCode, and core.Build cold and warm.
// The pipelines must produce the code core.Build produces.
func probeBuild(ctx context.Context, r *run) error {
	cfg, err := coreConfig()
	if err != nil {
		return err
	}
	var compile, pipes, decode []float64
	for rep := 0; rep < 3; rep++ {
		var c, pp, dc time.Duration
		for _, name := range sweepBenches {
			b, err := bench.ByName(name)
			if err != nil {
				return err
			}
			_, end := r.span(ctx, "lower.Compile", "bench", name)
			t := time.Now()
			base, err := lower.Compile(b.Name, b.Source)
			c += time.Since(t)
			end()
			if err != nil {
				return err
			}
			p, err := core.Build(b, cfg)
			if err != nil {
				return err
			}
			opt := analysis.Options{CostThreshold: cfg.CostThreshold}
			cands := analysis.NewManager(base).Candidates(opt)
			for _, pl := range pipelineNames {
				passes, err := pass.SchemePipeline(pl.name)
				if err != nil {
					return err
				}
				m := base
				if pl.s != core.Unsafe {
					m = base.Clone()
				}
				am := analysis.NewManager(m)
				am.SeedCandidates(opt, cands)
				pctx, end := r.span(ctx, "pass.Manager.RunWith", "pipeline", pl.name)
				t = time.Now()
				err = (&pass.Manager{Passes: passes, VerifyEach: true}).RunWith(pctx, m, opt, am)
				pp += time.Since(t)
				end()
				if err != nil {
					return err
				}
				_, end = r.span(ctx, "machine.CompileCode", "pipeline", pl.name)
				t = time.Now()
				code := machine.CompileCode(m)
				dc += time.Since(t)
				end()
				r.check(code.Fingerprint() == p.Code(pl.s).Fingerprint(),
					"%s %s: pipeline code differs from core.Build's", name, pl.name)
			}
		}
		compile = append(compile, ms(c))
		pipes = append(pipes, ms(pp))
		decode = append(decode, ms(dc))
	}
	r.layer("lower.compile_ms", "ms", compile...)
	r.layer("pass.pipelines_ms", "ms", pipes...)
	r.layer("machine.decode_ms", "ms", decode...)

	build := func() error {
		for _, name := range sweepBenches {
			b, err := bench.ByName(name)
			if err != nil {
				return err
			}
			_, end := r.span(ctx, "core.Build", "bench", name)
			_, err = core.Build(b, cfg)
			end()
			if err != nil {
				return err
			}
		}
		return nil
	}
	cold, err := timed(3, time.Millisecond, func() error { core.ResetBuildCache(); return build() })
	if err != nil {
		return err
	}
	r.layer("core.build_cold_ms", "ms", cold...)
	warm, err := timed(50, time.Microsecond, build)
	if err != nil {
		return err
	}
	r.layer("core.build_warm_us", "us", warm...)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probeTrain times Program.Train of both sweep benchmarks at the FI
// and perf scales, as rskipd trains per RSkip request.
func probeTrain(ctx context.Context, r *run) error {
	for _, sc := range []string{"fi", "perf"} {
		scale := parseScale(sc)
		if sc == "perf" {
			scale = parseScale(r.size.runScale)
		}
		vs, err := timed(3, time.Millisecond, func() error {
			for _, name := range sweepBenches {
				b, err := bench.ByName(name)
				if err != nil {
					return err
				}
				if _, err := buildTrained(ctx, r, b, daemonTrain, scale); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.layer("train.train_ms."+sc, "ms", vs...)
	}
	return nil
}

// probeMachine measures fault-free execution with the cycle model on,
// at /v1/run's scale, and Machine.Reset after a fault-free run.
func probeMachine(ctx context.Context, r *run) error {
	scale := parseScale(r.size.runScale)
	progs := map[string]*core.Program{}
	for _, name := range sweepBenches {
		b, err := bench.ByName(name)
		if err != nil {
			return err
		}
		p, err := buildTrained(ctx, r, b, daemonTrain, scale)
		if err != nil {
			return err
		}
		progs[name] = p
	}
	for _, s := range sweepSchemes {
		var vs []float64
		for rep := 0; rep < 3; rep++ {
			var wall time.Duration
			var instrs uint64
			for _, name := range sweepBenches {
				b, _ := bench.ByName(name)
				inst := b.Gen(derive(r.opts.seed, "probe-input", name), scale)
				_, end := r.span(ctx, "core.Run", "scheme", s.String())
				t := time.Now()
				o := progs[name].Run(s, inst, core.RunOpts{})
				wall += time.Since(t)
				end()
				if o.Err != nil {
					return fmt.Errorf("clean %s %s: %w", name, s, o.Err)
				}
				instrs += o.Result.Instrs
			}
			vs = append(vs, float64(wall.Nanoseconds())/float64(instrs))
		}
		r.layer("machine.clean_ns_per_instr."+s.String(), "ns/instr", vs...)
	}

	b, err := bench.ByName(sweepBenches[0])
	if err != nil {
		return err
	}
	p := progs[b.Name]
	inst := b.Gen(derive(r.opts.seed, "probe-input", b.Name), bench.ScaleFI)
	cfg := machine.Config{Code: p.Code(core.Unsafe), Backend: p.Cfg.Backend,
		RegionBlocks: p.RegionBlocks, TraceFn: -1}
	m := machine.New(p.Module(core.Unsafe), cfg)
	defer m.Release()
	var resets []float64
	for i := 0; i < 50; i++ {
		if _, err := m.Run(p.Kernel, inst.Setup(m.Mem)); err != nil {
			return err
		}
		_, end := r.span(ctx, "machine.Reset")
		t := time.Now()
		m.Reset(cfg)
		resets = append(resets, float64(time.Since(t).Nanoseconds())/1e3)
		end()
	}
	r.layer("machine.reset_us", "us", resets...)
	return nil
}

// probeReplicas runs the sweep's own first probeN fault plans per
// bench x scheme serially through core.Injector, then through
// fault.Campaign with nproc workers, to split replica time from the
// campaign engine's overhead.
func probeReplicas(ctx context.Context, r *run) error {
	progs, err := sweepSetup(ctx, r)
	if err != nil {
		return err
	}
	n := r.size.probeN
	var serial, campaignWall time.Duration
	var draws []float64
	for _, s := range sweepSchemes {
		var lat []float64
		var wall, hang time.Duration
		var instrs uint64
		var profile []float64
		for _, sp := range progs {
			var prof core.Outcome
			_, end := r.span(ctx, "core.Run", "profile", s.String())
			pv, err := timed(3, time.Millisecond, func() error {
				prof = sp.p.Run(s, sp.inst, core.RunOpts{})
				return prof.Err
			})
			end()
			if err != nil {
				return fmt.Errorf("profile %s %s: %w", sp.b.Name, s, err)
			}
			profile = append(profile, pv...)
			var plans []machine.FaultPlan
			_, end = r.span(ctx, "fault.DrawPlans")
			dv, _ := timed(5, time.Microsecond, func() error {
				plans = fault.DrawPlans(sp.planSeed(r.opts.seed, 0), 1000, fault.Config{}, prof.Result.Region)
				return nil
			})
			end()
			draws = append(draws, dv...)
			plans = plans[:n]
			budget := prof.Result.Instrs * 50
			inj := sp.p.NewInjector(s)
			_, end = r.span(ctx, "core.Injector.Run", "scheme", s.String())
			for i := range plans {
				t := time.Now()
				o := inj.Run(sp.inst, core.RunOpts{Fault: &plans[i], MaxInstrs: budget})
				d := time.Since(t)
				wall += d
				instrs += o.Result.Instrs
				lat = append(lat, float64(d.Nanoseconds())/1e3)
				var he *machine.HangError
				if errors.As(o.Err, &he) {
					hang += d
				}
			}
			end()
			inj.Close()

			cctx, end := r.span(ctx, "fault.Campaign", "scheme", s.String())
			t := time.Now()
			_, err = fault.Campaign(cctx, sp.p, s, sp.inst, fault.Config{N: n, Seed: sp.planSeed(r.opts.seed, 0), Workers: nproc()})
			campaignWall += time.Since(t)
			end()
			if err != nil {
				return err
			}
		}
		serial += wall
		r.layer("fault.profile_ms."+s.String(), "ms", median(profile))
		r.layer("machine.replica_ns_per_instr."+s.String(), "ns/instr", float64(wall.Nanoseconds())/float64(instrs))
		r.layer("machine.replica_us_p50."+s.String(), "us", quantile(lat, 0.5))
		r.layer("machine.replica_us_p99."+s.String(), "us", quantile(lat, 0.99))
		if slices.Contains(hangSchemes, s) {
			r.layer("machine.hang_time_share."+s.String(), "ratio", hang.Seconds()/wall.Seconds())
		}
	}
	r.layer("fault.draw_plans_us", "us", draws...)
	r.layer("fault.engine_overhead_share", "ratio",
		1-serial.Seconds()/(float64(nproc())*campaignWall.Seconds()))
	return nil
}

// probeResult times the incremental analyzer's warm-path pieces: the
// region-trace profile run and result-cache reads and writes.
func probeResult(ctx context.Context, r *run) error {
	ks := newStageKernel()
	p, inst, err := incrementalSetup(ctx, r, ks)
	if err != nil {
		return err
	}
	vs, err := timed(5, time.Millisecond, func() error {
		for _, s := range incrementalSchemes {
			_, end := r.span(ctx, "core.Run", "region_trace", s.String())
			o := p.Run(s, inst, core.RunOpts{RegionTrace: &machine.RegionTrace{}})
			end()
			if o.Err != nil {
				return o.Err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layer("result.profile_trace_ms", "ms", vs...)

	dir, err := r.tempDir("probe-results")
	if err != nil {
		return err
	}
	cache, err := result.Open(dir)
	if err != nil {
		return err
	}
	res, err := fault.Campaign(ctx, p, core.RSkip, inst, fault.Config{N: r.size.regionN, Seed: r.opts.seed, Workers: nproc()})
	if err != nil {
		return err
	}
	var puts, gets []float64
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("probe-%d-%d", r.opts.seed, i)
		_, end := r.span(ctx, "result.Cache.Put")
		t := time.Now()
		err := cache.Put(key, res)
		puts = append(puts, float64(time.Since(t).Nanoseconds())/1e3)
		end()
		if err != nil {
			return err
		}
		_, end = r.span(ctx, "result.Cache.Get")
		t = time.Now()
		got, err := cache.Get(key)
		gets = append(gets, float64(time.Since(t).Nanoseconds())/1e3)
		end()
		if err != nil {
			return err
		}
		r.check(got != nil && got.Counts == res.Counts, "result cache round trip of %s", key)
	}
	r.layer("result.cache_put_us", "us", puts...)
	r.layer("result.cache_get_us", "us", gets...)
	return nil
}

// probeServer measures rskipd's per-request costs on a fresh daemon
// with a fabric worker: the idle lease round trip, submit and status
// round trips, /v1/run against the same work in-process, and the
// two-node fabric's efficiency on one campaign.
func probeServer(ctx context.Context, r *run) error {
	dir, err := r.tempDir("probe-ck")
	if err != nil {
		return err
	}
	d, err := startDaemon(dir, true)
	if err != nil {
		return err
	}
	defer func() { r.checkErr(d.stop(), "probe daemon shutdown") }()
	for _, b := range sweepBenches {
		if err := d.compile(ctx, r, b); err != nil {
			return err
		}
	}

	var leases []float64
	for i := 0; i < 20; i++ {
		lctx, end := r.span(ctx, "server.POST /v1/fabric/lease")
		t := time.Now()
		status, body, err := d.call(lctx, http.MethodPost, "/v1/fabric/lease", map[string]any{"worker": "probe"})
		leases = append(leases, ms(time.Since(t)))
		end()
		if err != nil {
			return err
		}
		if status != http.StatusNoContent {
			return fmt.Errorf("idle lease: HTTP %d: %s", status, body)
		}
	}
	r.layer("fabric.lease_rtt_ms", "ms", leases...)

	var submits, statuses []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		sub, err := d.submit(ctx, r, r.campaignRequest(0, i))
		submits = append(submits, ms(time.Since(t)))
		if err != nil {
			return err
		}
		sctx, end := r.span(ctx, "server.GET /v1/campaigns/{id}")
		t = time.Now()
		status, body, err := d.call(sctx, http.MethodGet, sub.StatusURL, nil)
		statuses = append(statuses, ms(time.Since(t)))
		end()
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("status: HTTP %d: %s", status, body)
		}
		// Wait for the job so the next submit meets an idle daemon.
		if _, err := d.wait(ctx, r, sub); err != nil {
			return err
		}
	}
	r.layer("server.submit_ms", "ms", submits...)
	r.layer("server.status_ms", "ms", statuses...)

	var diffs []float64
	for i := 0; i < 8; i++ {
		k := i % numDaemonKinds
		rctx, end := r.span(ctx, "server.POST /v1/run")
		t := time.Now()
		var rr runResult
		err := d.post(rctx, "/v1/run", r.runRequest(k), &rr)
		viaHTTP := time.Since(t)
		end()
		if err != nil {
			return err
		}
		t = time.Now()
		want, err := runReference(r, k)
		inProcess := time.Since(t)
		if err != nil {
			return err
		}
		r.check(rr == want, "probe /v1/run kind %d = %+v, in-process %+v", k, rr, want)
		diffs = append(diffs, ms(viaHTTP-inProcess))
	}
	r.layer("server.run_overhead_ms", "ms", median(diffs))

	eff, err := fabricEfficiency(ctx, r, d, 2*r.size.probeN)
	if !r.checkErr(err, "fabric efficiency probe") {
		return err
	}
	r.layer("fabric.efficiency", "ratio", eff)
	return nil
}

// probeTrace measures what recording one span costs.
func probeTrace(ctx context.Context, r *run) error {
	t := newTracer()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		_, end := t.start(ctx, "trace.probe")
		end()
	}
	r.layer("trace.span_cost_ns", "ns", float64(time.Since(start).Nanoseconds())/n)
	return nil
}
