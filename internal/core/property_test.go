package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/machine"
)

// This file holds the pipeline's central correctness property: with
// faults disabled, every protection scheme — SWIFT's detection
// shadowing, SWIFT-R's TMR voting, RSkip's prediction machinery
// (including its misprediction recomputation paths) — is semantically
// invisible. Outputs must be bit-identical to the unprotected build,
// for arbitrary kernels, not just the nine curated benchmarks.

// genKernel emits a random but well-formed MiniC program: an optional
// helper function and a reduction kernel whose output loop is shaped
// like the paper's candidates (out[i] = reduction over a window).
// Generated programs avoid division and out-of-bounds indexing so
// every run is trap-free and deterministic; everything else — operator
// mix, expression depth, window size, value type, helper calls, AR
// pragmas — varies with the seed.
func genKernel(rng *rand.Rand) (src string, k int, isFloat bool) {
	k = 2 + rng.Intn(4) // window size baked into the source
	isFloat = rng.Intn(2) == 0
	ty := "int"
	if isFloat {
		ty = "float"
	}

	var sb strings.Builder
	hasHelper := isFloat && rng.Intn(2) == 0
	if hasHelper {
		fmt.Fprintf(&sb, "float helper(float x) { return x * %.1f + %.1f; }\n",
			0.5+rng.Float64(), rng.Float64())
	}

	// Random expression over in-bounds terminals. Depth-limited;
	// division-free; sqrt always behind fabs.
	var expr func(depth int) string
	expr = func(depth int) string {
		if depth <= 0 || rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				return fmt.Sprintf("a[i + %d]", rng.Intn(k))
			case 1:
				return "b[j]"
			default:
				if isFloat {
					return fmt.Sprintf("%.2f", rng.Float64()*4)
				}
				return fmt.Sprintf("%d", 1+rng.Intn(7))
			}
		}
		switch rng.Intn(5) {
		case 0:
			return fmt.Sprintf("(%s + %s)", expr(depth-1), expr(depth-1))
		case 1:
			return fmt.Sprintf("(%s - %s)", expr(depth-1), expr(depth-1))
		case 2:
			return fmt.Sprintf("(%s * %s)", expr(depth-1), expr(depth-1))
		case 3:
			if isFloat {
				return fmt.Sprintf("sqrt(fabs(%s))", expr(depth-1))
			}
			return fmt.Sprintf("(%s + %s)", expr(depth-1), expr(depth-1))
		default:
			if hasHelper {
				return fmt.Sprintf("helper(%s)", expr(depth-1))
			}
			return fmt.Sprintf("(%s * %s)", expr(depth-1), expr(depth-1))
		}
	}

	fmt.Fprintf(&sb, "void kernel(%s a[], %s b[], %s out[], int n) {\n", ty, ty, ty)
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&sb, "\t#pragma rskip ar(%.1f)\n", float64(rng.Intn(10))/10)
	}
	fmt.Fprintf(&sb, "\tfor (int i = 0; i < n; i = i + 1) {\n")
	zero := "0"
	if isFloat {
		zero = "0.0"
	}
	fmt.Fprintf(&sb, "\t\t%s acc = %s;\n", ty, zero)
	fmt.Fprintf(&sb, "\t\tfor (int j = 0; j < %d; j = j + 1) {\n", k)
	fmt.Fprintf(&sb, "\t\t\tacc = acc + %s;\n", expr(2+rng.Intn(2)))
	fmt.Fprintf(&sb, "\t\t}\n")
	fmt.Fprintf(&sb, "\t\tout[i] = acc;\n")
	fmt.Fprintf(&sb, "\t}\n}\n")
	return sb.String(), k, isFloat
}

// genBenchmark wraps a generated kernel as a bench.Benchmark so the
// full pipeline (build, train, run) treats it like a Table 1 entry.
func genBenchmark(name string, rng *rand.Rand) bench.Benchmark {
	src, k, isFloat := genKernel(rng)
	return bench.Benchmark{
		Name:   name,
		Kernel: "kernel",
		Source: src,
		Gen: func(seed int64, scale bench.Scale) bench.Instance {
			irng := rand.New(rand.NewSource(seed))
			n := 24
			// Inputs are drawn here, once — Setup runs once per scheme
			// run and must copy identical data every time.
			draw := func(ln int) []uint64 {
				ws := make([]uint64, ln)
				for i := range ws {
					if isFloat {
						ws[i] = math.Float64bits(irng.Float64() * 4)
					} else {
						ws[i] = uint64(int64(irng.Intn(64)))
					}
				}
				return ws
			}
			aData, bData := draw(n+k), draw(k)
			return bench.Instance{
				Elements: n,
				Setup: func(mem *machine.Memory) []uint64 {
					a := mem.Alloc(int64(len(aData)))
					b := mem.Alloc(int64(len(bData)))
					out := mem.Alloc(int64(n))
					copyWords := func(base int64, ws []uint64) {
						for i, w := range ws {
							if err := mem.StoreWord(base+int64(i), w); err != nil {
								panic(err)
							}
						}
					}
					copyWords(a, aData)
					copyWords(b, bData)
					return []uint64{uint64(a), uint64(b), uint64(out), uint64(int64(n))}
				},
				Output: func(mem *machine.Memory) []uint64 {
					// out is the third allocation: after a (n+k) and b (k).
					words := make([]uint64, n)
					for i := range words {
						w, err := mem.LoadWord(int64(n + k + k + i))
						if err != nil {
							panic(err)
						}
						words[i] = w
					}
					return words
				},
			}
		},
	}
}

// TestSchemesFaultFreeBitIdentical is the property: for randomized
// kernels and inputs, every protection scheme's fault-free output is
// bit-identical to the unprotected run, both before and after
// training (which deploys TP tables and, where eligible, memo tables).
func TestSchemesFaultFreeBitIdentical(t *testing.T) {
	const kernels = 12
	for ki := 0; ki < kernels; ki++ {
		ki := ki
		t.Run(fmt.Sprintf("kernel%02d", ki), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + ki)))
			b := genBenchmark(fmt.Sprintf("prop%02d", ki), rng)
			p, err := core.Build(b, core.DefaultConfig())
			if err != nil {
				t.Fatalf("build failed for generated kernel:\n%s\nerror: %v", b.Source, err)
			}
			if err := p.Train([]int64{bench.TrainSeed(0), bench.TrainSeed(1)}, bench.ScaleTiny); err != nil {
				t.Fatalf("train failed for generated kernel:\n%s\nerror: %v", b.Source, err)
			}
			for seed := 0; seed < 3; seed++ {
				inst := b.Gen(bench.TestSeed(seed), bench.ScaleTiny)
				golden := p.Run(core.Unsafe, inst, core.RunOpts{})
				if golden.Err != nil {
					t.Fatalf("unprotected run failed:\n%s\nerror: %v", b.Source, golden.Err)
				}
				for _, s := range []core.Scheme{core.SWIFT, core.SWIFTR, core.RSkip} {
					o := p.Run(s, inst, core.RunOpts{})
					if o.Err != nil {
						t.Fatalf("%s run failed (seed %d):\n%s\nerror: %v", s, seed, b.Source, o.Err)
					}
					if len(o.Output) != len(golden.Output) {
						t.Fatalf("%s output length %d != unprotected %d (seed %d)\n%s",
							s, len(o.Output), len(golden.Output), seed, b.Source)
					}
					for i := range o.Output {
						if o.Output[i] != golden.Output[i] {
							t.Fatalf("%s output[%d] = %#x != unprotected %#x (seed %d)\nkernel:\n%s",
								s, i, o.Output[i], golden.Output[i], seed, b.Source)
						}
					}
				}
			}
		})
	}
}

// FuzzConvergence replays injected UNSAFE, SWIFT-R and RSkip replicas
// of a generated kernel against their clean run's capture — resumed
// from a snapshot, and stopping early once converged, by copy
// isolation and with dead memory among other ways — and requires each to equal the
// reference engine's from-zero replica in result, error, output, fault
// attribution and run-time statistics. The kernel seed picks the
// program and its inputs; the plan index picks the fault kind, its
// target, bit, register and width. Among the seed entries, {1000, 9}
// has a SWIFT-R replica converge by copy isolation through a load from
// its struck shadow pointer, and in {1001, 774} the walk rejects a
// SWIFT-R replica's load whose shifted address range leaves the mapped
// space.
func FuzzConvergence(f *testing.F) {
	for _, s := range []struct {
		seed int64
		plan uint32
	}{{1000, 0}, {1001, 3}, {1002, 17}, {1003, 40}, {1004, 123}, {1005, 999}, {1006, 4242}, {1000, 9}, {1001, 774}} {
		f.Add(s.seed, s.plan)
	}
	f.Fuzz(func(t *testing.T, seed int64, plan uint32) {
		b := genBenchmark("fuzz", rand.New(rand.NewSource(seed)))
		p, err := core.Build(b, core.DefaultConfig())
		if err != nil {
			t.Fatalf("build failed for generated kernel:\n%s\nerror: %v", b.Source, err)
		}
		if err := p.Train([]int64{bench.TrainSeed(0)}, bench.ScaleTiny); err != nil {
			t.Fatalf("train failed for generated kernel:\n%s\nerror: %v", b.Source, err)
		}
		inst := b.Gen(bench.TestSeed(0), bench.ScaleTiny)
		for _, s := range []core.Scheme{core.Unsafe, core.SWIFTR, core.RSkip} {
			c := machine.NewCapture(8)
			clean := p.RunCapture(s, inst, core.RunOpts{}, c)
			if clean.Err != nil || clean.Result.Region == 0 {
				t.Fatalf("%s clean run: region %d, %v", s, clean.Result.Region, clean.Err)
			}
			fp := machine.FaultPlan{
				Kind:   machine.FaultKind(plan % uint32(machine.NumFaultKinds)),
				Target: uint64(plan/uint32(machine.NumFaultKinds)) * 7919 % clean.Result.Region,
				Bit:    uint(plan / 3 % 32),
				Pick:   int(plan / 5),
				Width:  uint(1 + plan/7%4),
			}
			opts := core.RunOpts{Fault: &fp, MaxInstrs: 3 * clean.Result.Instrs}
			replay := p.NewInjector(s)
			got := replay.Replay(inst, opts, c)
			replay.Close()
			opts.Reference = true
			fresh := p.NewInjector(s)
			want := fresh.Run(inst, opts)
			fresh.Close()
			label := fmt.Sprintf("%s %+v (work %+v)", s, fp, got.Work)
			// Work is not compared with the from-zero run's: it is what
			// the replay's shortcuts spared, which the from-zero run's
			// zero differs from by design.
			var prefix uint64
			if snap := c.Latest(fp.Target, opts.MaxInstrs); snap != nil {
				prefix = snap.Instrs()
			}
			if got.Work.Resumed != prefix || got.Work.Executed(got.Result.Instrs) > got.Result.Instrs || want.Work != (machine.Work{}) {
				t.Fatalf("%s: replayed work %+v of %d instructions, want a prefix of %d; from zero %+v",
					label, got.Work, got.Result.Instrs, prefix, want.Work)
			}
			if got.Result != want.Result || fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
				t.Fatalf("%s: replayed %+v, %v; from zero %+v, %v", label, got.Result, got.Err, want.Result, want.Err)
			}
			if got.FaultFired != want.FaultFired || got.FaultTag != want.FaultTag || got.FaultOp != want.FaultOp ||
				got.FaultInValueSlice != want.FaultInValueSlice {
				t.Fatalf("%s: fault attribution diverged", label)
			}
			if !reflect.DeepEqual(got.Output, want.Output) || !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("%s: output or run-time statistics diverged", label)
			}
		}
	})
}
