package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/machine"
	"rskip/internal/result"
)

// The incremental workload is FastFlip-style re-analysis through
// result.Analyze: a generated four-stage kernel over disjoint arrays,
// each stage one function with one candidate loop, analyzed under
// UNSAFE and RSkip. Each cycle runs cold analyses (fresh result cache),
// warm re-analyses of the unchanged program, and edits that bump the
// first stage's constant, rebuild, retrain and re-analyze, so exactly
// one region per scheme misses the cache. Cold time is bound by
// machine; warm time goes to the result cache, composition and the
// region-trace profile run; an edit adds lower, pass and train.

var incrementalSchemes = []core.Scheme{core.Unsafe, core.RSkip}

// incrementalTrain is rskipd's default number of training inputs.
const incrementalTrain = 2

// colds is the number of cold analyses per cycle, each with a fresh
// result cache and fault plans of its own.
const colds = 2

// stageKernel is the generated kernel: stage s reduces a window of
// width k over its own input array with constant c[s].
type stageKernel struct {
	n int   // per-stage input length
	k int   // window width
	c []int // per-stage constants
}

func newStageKernel() stageKernel { return stageKernel{n: 48, k: 4, c: []int{3, 5, 7, 9}} }

// edited returns the kernel with stage 0's constant bumped by e.
func (ks stageKernel) edited(e int) stageKernel {
	c := append([]int(nil), ks.c...)
	c[0] += e
	return stageKernel{n: ks.n, k: ks.k, c: c}
}

func (ks stageKernel) outLen() int { return 2 * (ks.n - ks.k + 1) }

// source renders the kernel as MiniC: one function per stage, with
// varying reduction shapes, and a kernel calling them in order.
func (ks stageKernel) source() string {
	var b strings.Builder
	for s, c := range ks.c {
		fmt.Fprintf(&b, "void stage%d(int input[], int output[], int n) {\n", s)
		fmt.Fprintf(&b, "\tfor (int f = 0; f < 2; f = f + 1) {\n")
		fmt.Fprintf(&b, "\t\tfor (int i = 0; i < n - %d + 1; i = i + 1) {\n", ks.k)
		if s%2 == 0 {
			fmt.Fprintf(&b, "\t\t\tint acc = 0;\n")
			fmt.Fprintf(&b, "\t\t\tfor (int j = 0; j < %d; j = j + 1) {\n", ks.k)
			fmt.Fprintf(&b, "\t\t\t\tacc = acc + input[i + j] * %d;\n", c)
		} else {
			fmt.Fprintf(&b, "\t\t\tint acc = input[i] * %d;\n", c)
			fmt.Fprintf(&b, "\t\t\tfor (int j = 1; j < %d; j = j + 1) {\n", ks.k)
			fmt.Fprintf(&b, "\t\t\t\tif (input[i + j] * %d > acc) {\n", c)
			fmt.Fprintf(&b, "\t\t\t\t\tacc = input[i + j] * %d;\n", c)
			fmt.Fprintf(&b, "\t\t\t\t}\n")
		}
		fmt.Fprintf(&b, "\t\t\t}\n")
		fmt.Fprintf(&b, "\t\t\toutput[f * (n - %d + 1) + i] = acc;\n", ks.k)
		fmt.Fprintf(&b, "\t\t}\n\t}\n}\n\n")
	}
	b.WriteString("void kernel(")
	for s := range ks.c {
		fmt.Fprintf(&b, "int in%d[], int out%d[], ", s, s)
	}
	b.WriteString("int n) {\n")
	for s := range ks.c {
		fmt.Fprintf(&b, "\tstage%d(in%d, out%d, n);\n", s, s, s)
	}
	b.WriteString("}\n")
	return b.String()
}

// benchmark wraps the kernel. Setup lays stage s's input and output
// arrays out back to back on a fresh heap, so Output recomputes every
// base from the layout instead of sharing state with Setup, which
// concurrent campaign workers would race on.
func (ks stageKernel) benchmark() bench.Benchmark {
	stride := int64(ks.n + ks.outLen())
	return bench.Benchmark{
		Name: "stages", Kernel: "kernel", Source: ks.source(),
		Description: "generated four-stage disjoint-array kernel",
		Gen: func(seed int64, _ bench.Scale) bench.Instance {
			rng := rand.New(rand.NewSource(seed))
			inputs := make([][]int64, len(ks.c))
			for s := range inputs {
				inputs[s] = make([]int64, ks.n)
				for i := range inputs[s] {
					inputs[s][i] = int64(rng.Intn(200))
				}
			}
			return bench.Instance{
				Elements: len(ks.c) * ks.outLen(),
				Setup: func(mem *machine.Memory) []uint64 {
					var args []uint64
					for s := range ks.c {
						in := mem.Alloc(int64(ks.n))
						mem.CopyInts(in, inputs[s])
						out := mem.Alloc(int64(ks.outLen()))
						args = append(args, uint64(in), uint64(out))
					}
					return append(args, uint64(int64(ks.n)))
				},
				Output: func(mem *machine.Memory) []uint64 {
					var all []uint64
					for s := range ks.c {
						base := int64(s)*stride + int64(ks.n)
						for i := 0; i < ks.outLen(); i++ {
							w, err := mem.LoadWord(base + int64(i))
							if err != nil {
								panic(err)
							}
							all = append(all, w)
						}
					}
					return all
				},
			}
		},
	}
}

// incrementalSetup builds and trains the kernel from a cold build
// cache.
func incrementalSetup(ctx context.Context, r *run, ks stageKernel) (*core.Program, bench.Instance, error) {
	core.ResetBuildCache()
	b := ks.benchmark()
	p, err := buildTrained(ctx, r, b, incrementalTrain, bench.ScaleFI)
	if err != nil {
		return nil, bench.Instance{}, err
	}
	return p, b.Gen(derive(r.opts.seed, "incremental-input"), bench.ScaleFI), nil
}

// analyze runs result.Analyze for every incremental scheme with the
// plans of seed.
func analyze(ctx context.Context, r *run, p *core.Program, inst bench.Instance, cache *result.Cache, seed int64) ([]*result.Report, error) {
	var reps []*result.Report
	for _, s := range incrementalSchemes {
		actx, end := r.span(ctx, "result.Analyze", "scheme", s.String())
		rep, err := result.Analyze(actx, p, s, inst, result.Options{
			Cache: cache, PerRegionN: r.size.regionN, Seed: seed,
			InstKey: "bench-input", Workers: nproc(),
		})
		end()
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", s, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// sameReports compares everything an analysis reports except whether
// each region came from the cache and how long it took.
func sameReports(a, b []*result.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Scheme != y.Scheme || x.Protection != y.Protection || x.ProtectionCI != y.ProtectionCI ||
			x.Budget != y.Budget || !reflect.DeepEqual(x.Composed, y.Composed) || len(x.Regions) != len(y.Regions) {
			return false
		}
		for j := range x.Regions {
			rx, ry := x.Regions[j], y.Regions[j]
			if rx.Owner != ry.Owner || rx.Fingerprint != ry.Fingerprint || rx.Population != ry.Population ||
				rx.Weight != ry.Weight || !reflect.DeepEqual(rx.Result, ry.Result) {
				return false
			}
		}
	}
	return true
}

func runIncremental(r *run) error {
	ks := newStageKernel()
	var p *core.Program
	var inst bench.Instance
	err := r.setupBlock(func() (time.Duration, error) {
		return timeIt(func() error {
			var err error
			p, inst, err = incrementalSetup(r.ctx, r, ks)
			return err
		})
	})
	if err != nil {
		return err
	}

	start := time.Now()
	var last time.Duration
	for cycle := 0; cycle == 0 || !r.deadline(start, last); cycle++ {
		t := time.Now()
		if err := incrementalCycle(r, ks, p, inst, cycle); err != nil {
			return err
		}
		last = time.Since(t)
	}
	return nil
}

// incrementalCycle is one cold/warm/edit sequence. Every cold analysis
// draws its own fault plans, so a run's cold rate averages over as
// many plan sets as it has cold analyses; the warm analyses and edits
// reuse the last cold analysis's plans and result cache.
func incrementalCycle(r *run, ks stageKernel, p *core.Program, inst bench.Instance, cycle int) error {
	ctx := r.ctx
	// Edits rebuild from a cold build cache in every cycle, not only
	// the first.
	core.ResetBuildCache()
	var cold []*result.Report
	var cache *result.Cache
	var seed int64
	for i := 0; i < colds; i++ {
		seed = derive(r.opts.seed, "incremental-plans", cycle, i)
		dir, err := r.tempDir("results")
		if err != nil {
			return err
		}
		if cache, err = result.Open(dir); err != nil {
			return err
		}
		var reps []*result.Report
		d, err := r.timedRep(func() error {
			var err error
			reps, err = analyze(ctx, r, p, inst, cache, seed)
			return err
		})
		if !r.checkErr(err, "cold analysis") {
			return err
		}
		r.request("cold", d)
		live := 0
		for _, rep := range reps {
			live += rep.CacheMisses * r.size.regionN
		}
		r.rate("cold", live, d)
		cold = reps
	}
	// The warm analyses run back to back as one timed repetition, and
	// each counts as the repetition's mean. Timed one by one, a warm
	// analysis took either about 6 ms or about 25 ms on the reference
	// host, in no fixed order, so the median of single analyses flipped
	// between the two from run to run.
	warm := make([][]*result.Report, r.size.warms)
	d, err := r.timedRep(func() error {
		for i := range warm {
			var err error
			if warm[i], err = analyze(ctx, r, p, inst, cache, seed); err != nil {
				return err
			}
		}
		return nil
	})
	if !r.checkErr(err, "warm analyses") {
		return err
	}
	r.request("warm", d/time.Duration(len(warm)))
	for i, reps := range warm {
		r.check(sameReports(reps, cold), "warm analysis %d differs from cold", i)
	}
	for e := 1; e <= r.size.edits; e++ {
		var reps []*result.Report
		d, err := r.timedRep(func() error {
			pe, err := buildTrained(ctx, r, ks.edited(e).benchmark(), incrementalTrain, bench.ScaleFI)
			if err != nil {
				return err
			}
			reps, err = analyze(ctx, r, pe, inst, cache, seed)
			return err
		})
		if !r.checkErr(err, "edit analysis") {
			return err
		}
		r.request("edit", d)
		for _, rep := range reps {
			r.check(rep.CacheMisses == 1 && rep.CacheHits == len(ks.c)-1,
				"edit %d %s: %d misses and %d hits, want 1 and %d", e, rep.Scheme, rep.CacheMisses, rep.CacheHits, len(ks.c)-1)
		}
	}
	return nil
}
