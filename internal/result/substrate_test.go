package result

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/machine"
)

// The differential test substrate: randomized multi-stage kernels
// whose stages are separate functions over pairwise-disjoint input
// and output arrays — the shape under which FastFlip-style
// composition is exact, because a fault confined to one stage's
// region can only perturb that stage's slice of the output. The
// substrate proves two things bit-for-bit:
//
//  1. Partition-sum: a monolithic campaign's plan list, split along
//     the region decomposition and re-run per region, composes to the
//     monolithic counts exactly (no statistics involved).
//  2. Incrementality: after editing one stage, a warm cached analysis
//     re-runs only the edited region yet reports program-level
//     figures bit-identical to a cold analysis of the edited program.

// stageVariant is one inner-reduction shape a generated stage can take.
type stageVariant int

const (
	varSum stageVariant = iota // acc += input * c
	varAdd                     // acc += input + c
	varMax                     // windowed max against c-scaled input
	numVariants
)

// stageSpec is one generated stage: a reduction over its own arrays.
type stageSpec struct {
	variant stageVariant
	c       int // constant folded into the reduction
	k       int // window size
}

// kernelSpec is one generated multi-stage kernel.
type kernelSpec struct {
	stages []stageSpec
	n      int // per-stage input length
}

// genKernel draws a random kernel: 2–4 stages, each with its own
// variant, constant and window.
func genKernel(rng *rand.Rand) kernelSpec {
	ks := kernelSpec{n: 10 + rng.Intn(6)}
	for s := 0; s < 2+rng.Intn(3); s++ {
		ks.stages = append(ks.stages, stageSpec{
			variant: stageVariant(rng.Intn(int(numVariants))),
			c:       1 + rng.Intn(9),
			k:       2 + rng.Intn(3),
		})
	}
	return ks
}

// source renders the kernel to MiniC: one function per stage (each
// mirroring the micro-kernel shape that candidate detection is known
// to pick up), and a kernel that calls the stages in order on
// disjoint arrays.
func (ks kernelSpec) source() string {
	var b strings.Builder
	for i, st := range ks.stages {
		fmt.Fprintf(&b, "void stage%d(int input[], int output[], int n) {\n", i)
		fmt.Fprintf(&b, "\tfor (int f = 0; f < 2; f = f + 1) {\n")
		fmt.Fprintf(&b, "\t\tfor (int i = 0; i < n - %d + 1; i = i + 1) {\n", st.k)
		switch st.variant {
		case varSum:
			fmt.Fprintf(&b, "\t\t\tint acc = 0;\n")
			fmt.Fprintf(&b, "\t\t\tfor (int j = 0; j < %d; j = j + 1) {\n", st.k)
			fmt.Fprintf(&b, "\t\t\t\tacc = acc + input[i + j] * %d;\n", st.c)
			fmt.Fprintf(&b, "\t\t\t}\n")
		case varAdd:
			fmt.Fprintf(&b, "\t\t\tint acc = 0;\n")
			fmt.Fprintf(&b, "\t\t\tfor (int j = 0; j < %d; j = j + 1) {\n", st.k)
			fmt.Fprintf(&b, "\t\t\t\tacc = acc + input[i + j] + %d;\n", st.c)
			fmt.Fprintf(&b, "\t\t\t}\n")
		case varMax:
			fmt.Fprintf(&b, "\t\t\tint acc = input[i] * %d;\n", st.c)
			fmt.Fprintf(&b, "\t\t\tfor (int j = 1; j < %d; j = j + 1) {\n", st.k)
			fmt.Fprintf(&b, "\t\t\t\tif (input[i + j] * %d > acc) {\n", st.c)
			fmt.Fprintf(&b, "\t\t\t\t\tacc = input[i + j] * %d;\n", st.c)
			fmt.Fprintf(&b, "\t\t\t\t}\n")
			fmt.Fprintf(&b, "\t\t\t}\n")
		}
		fmt.Fprintf(&b, "\t\t\toutput[f * (n - %d + 1) + i] = acc;\n", st.k)
		fmt.Fprintf(&b, "\t\t}\n\t}\n}\n\n")
	}
	b.WriteString("void kernel(")
	for i := range ks.stages {
		fmt.Fprintf(&b, "int in%d[], int out%d[], ", i, i)
	}
	b.WriteString("int n) {\n")
	for i := range ks.stages {
		fmt.Fprintf(&b, "\tstage%d(in%d, out%d, n);\n", i, i, i)
	}
	b.WriteString("}\n")
	return b.String()
}

// outLen is one stage's output length (the f-repeat doubles it).
func (ks kernelSpec) outLen(s int) int { return 2 * (ks.n - ks.stages[s].k + 1) }

// benchmark wraps the kernel as a bench.Benchmark whose Output
// concatenates the per-stage output arrays.
func (ks kernelSpec) benchmark(name string) bench.Benchmark {
	return bench.Benchmark{
		Name:        name,
		Domain:      "Differential substrate",
		Description: "Randomized multi-stage disjoint-array kernel",
		Pattern:     "Per-stage reduction loops",
		Location:    "One per stage function",
		Kernel:      "kernel",
		Source:      ks.source(),
		Gen: func(seed int64, scale bench.Scale) bench.Instance {
			rng := rand.New(rand.NewSource(seed))
			inputs := make([][]int64, len(ks.stages))
			for s := range inputs {
				inputs[s] = make([]int64, ks.n)
				for i := range inputs[s] {
					inputs[s][i] = int64(rng.Intn(200))
				}
			}
			total := 0
			for s := range ks.stages {
				total += ks.outLen(s)
			}
			return bench.Instance{
				Elements: total,
				Setup: func(mem *machine.Memory) []uint64 {
					var args []uint64
					for s := range ks.stages {
						in := mem.Alloc(int64(ks.n))
						mem.CopyInts(in, inputs[s])
						out := mem.Alloc(int64(ks.outLen(s)))
						args = append(args, uint64(in), uint64(out))
					}
					return append(args, uint64(int64(ks.n)))
				},
				// Output recomputes each stage's base from Setup's fixed
				// layout (from address 0: n input words, then outLen(s)
				// output words per stage) instead of sharing state with
				// Setup, because campaign workers call both concurrently.
				Output: func(mem *machine.Memory) []uint64 {
					var all []uint64
					var base int64
					for s := range ks.stages {
						base += int64(ks.n)
						for i := 0; i < ks.outLen(s); i++ {
							w, err := mem.LoadWord(base + int64(i))
							if err != nil {
								panic(err)
							}
							all = append(all, w)
						}
						base += int64(ks.outLen(s))
					}
					return all
				},
			}
		},
	}
}

// buildKernel compiles and trains one generated kernel.
func buildKernel(t *testing.T, ks kernelSpec, name string) (*core.Program, bench.Instance) {
	t.Helper()
	b := ks.benchmark(name)
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		t.Fatalf("%s: build: %v\nsource:\n%s", name, err, b.Source)
	}
	if err := p.Train([]int64{bench.TrainSeed(0)}, bench.ScaleTiny); err != nil {
		t.Fatalf("%s: train: %v", name, err)
	}
	return p, b.Gen(bench.TestSeed(0), bench.ScaleTiny)
}

// profileOf profiles one scheme run with a region trace.
func profileOf(t *testing.T, p *core.Program, s core.Scheme, inst bench.Instance) *fault.Profile {
	t.Helper()
	prof, err := fault.NewProfile(context.Background(), p, s, inst, &machine.RegionTrace{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Trace.Total() != prof.Result.Region {
		t.Fatalf("trace covers %d of %d in-region instructions", prof.Trace.Total(), prof.Result.Region)
	}
	return prof
}

var allSchemes = []core.Scheme{core.Unsafe, core.SWIFT, core.SWIFTR, core.RSkip, core.SWIFTRHard}

// exhaustiveBudget is the fault package's default ExhaustiveBudget:
// the differential enumerates only the profiles that fit it.
const exhaustiveBudget = 200000

// The partition-sum property over the substrate: for randomized
// kernels and every scheme, the exhaustive skip and multibit campaigns
// of every region view sum to the whole profile's exhaustive campaign
// exactly — every fault site of the run lies in exactly one region, and
// a view's campaign enumerates its region's sites with the records the
// whole profile gives them. Each kernel runs on its shortest input, so
// that enumeration stays cheap, and a profile is enumerated only if its
// sites fit the model's cap: the default budget for skip, under which
// every profile fits, and 30,000 for multibit's 32 sites per
// instruction.
func TestComposedMatchesMonolithicDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential substrate is not short")
	}
	models := []struct {
		name  string
		mix   fault.Mix
		sites uint64 // fault sites per in-region instruction
		cap   uint64
	}{
		{"skip", fault.Mix{Skip: 1}, 1, exhaustiveBudget},
		{"multibit", fault.Mix{MultiBit: 1}, 32, 30000},
	}
	kernels := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if raceEnabled {
		// The proof is deterministic; under the race detector two
		// kernels, and the smallest multibit profile, keep the concurrent
		// campaigns covered for both models.
		kernels = []int{5, 6}
		models[1].cap = 15000
	}
	var mu sync.Mutex
	covered := map[string]int{}
	t.Cleanup(func() { // after every parallel kernel subtest
		for _, m := range models {
			if covered[m.name] < 2 {
				t.Errorf("%s: only %d region views enumerated", m.name, covered[m.name])
			}
		}
	})
	for _, ki := range kernels {
		ki := ki
		t.Run(fmt.Sprintf("kernel%02d", ki), func(t *testing.T) {
			t.Parallel()
			ks := genKernel(rand.New(rand.NewSource(int64(1000 + ki))))
			ks.n = 0 // the shortest input every stage's window slides over twice
			for _, st := range ks.stages {
				ks.n = max(ks.n, st.k+1)
			}
			p, inst := buildKernel(t, ks, fmt.Sprintf("diffsub%02d", ki))
			for _, s := range allSchemes {
				prof := profileOf(t, p, s, inst)
				regions := prof.Trace.ByOwner()
				if len(regions) < 2 {
					t.Fatalf("%s: only %d regions; substrate kernels must span several", s, len(regions))
				}
				for _, m := range models {
					if m.sites*prof.Result.Region > m.cap {
						continue
					}
					cfg := fault.Config{Mix: m.mix, Exhaustive: true, Workers: 2}
					mono, err := fault.CampaignOn(context.Background(), prof, cfg)
					if err != nil {
						t.Fatalf("%s/%s: monolithic: %v", s, m.name, err)
					}
					var parts []fault.Result
					for _, lay := range regions {
						r, err := fault.CampaignOn(context.Background(), prof.Within(lay), cfg)
						if err != nil {
							t.Fatalf("%s/%s: region %d: %v", s, m.name, lay.Key, err)
						}
						parts = append(parts, r)
					}
					comp := ComposeCounts(s, parts)
					if comp.N != mono.N || comp.Counts != mono.Counts ||
						comp.Fired != mono.Fired || comp.FalseNeg != mono.FalseNeg ||
						comp.Recovered != mono.Recovered {
						t.Errorf("%s/%s: composed != monolithic:\n  composed  N=%d counts=%v fired=%d fn=%d rec=%d\n  monolithic N=%d counts=%v fired=%d fn=%d rec=%d",
							s, m.name, comp.N, comp.Counts, comp.Fired, comp.FalseNeg, comp.Recovered,
							mono.N, mono.Counts, mono.Fired, mono.FalseNeg, mono.Recovered)
					}
					if !reflect.DeepEqual(normalizeErrors(comp.Errors), normalizeErrors(mono.Errors)) {
						t.Errorf("%s/%s: composed error taxonomy diverges:\n  composed  %v\n  monolithic %v", s, m.name, comp.Errors, mono.Errors)
					}
					mu.Lock()
					covered[m.name] += len(regions)
					mu.Unlock()
				}
			}
		})
	}
}

// normalizeErrors maps empty maps to nil so DeepEqual compares
// taxonomies structurally.
func normalizeErrors(m map[fault.Class]map[string]int) map[fault.Class]map[string]int {
	if len(m) == 0 {
		return nil
	}
	return m
}

// The stratified estimator against exhaustive ground truth: on a
// micro-kernel whose skip-fault population can be enumerated exactly,
// the stratified campaign's CI must bracket the exact protection rate
// (fixed seed; the interval is 95%, the seed is chosen once).
func TestStratifiedCIBracketsExhaustiveGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive ground truth is not short")
	}
	if raceEnabled {
		// Exhaustive enumeration is a deterministic statistical proof
		// with no concurrency of its own; under the race detector it
		// costs ~2 minutes for zero extra coverage.
		t.Skip("deterministic exhaustive proof; skipped under -race")
	}
	b, err := bench.ByName("musum")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst := b.Gen(bench.TestSeed(0), bench.ScaleTiny)
	for _, s := range []core.Scheme{core.SWIFT, core.SWIFTRHard} {
		exact, err := fault.Campaign(context.Background(), p, s, inst,
			fault.Config{Mix: fault.Mix{Skip: 1}, Exhaustive: true})
		if err != nil {
			t.Fatalf("%s: exhaustive: %v", s, err)
		}
		truth := exact.ProtectionRate()

		strat, err := fault.Campaign(context.Background(), p, s, inst,
			fault.Config{N: 400, Seed: 21, Stratify: true, Mix: fault.Mix{Skip: 1}})
		if err != nil {
			t.Fatalf("%s: stratified: %v", s, err)
		}
		lo, hi := strat.ProtectionCI()
		if truth < lo || truth > hi {
			t.Errorf("%s: stratified CI [%.2f, %.2f] misses exhaustive rate %.2f",
				s, lo, hi, truth)
		}
		if len(strat.Strata) == 0 {
			t.Errorf("%s: stratified campaign reported no strata", s)
		}
	}
}

// sharedSub caches one substrate kernel build for tests that only
// need a representative program.
var (
	subOnce sync.Once
	subKS   kernelSpec
	subP    *core.Program
	subInst bench.Instance
)

func sharedSub(t *testing.T) (kernelSpec, *core.Program, bench.Instance) {
	t.Helper()
	subOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		subKS = genKernel(rng)
		subP, subInst = buildKernel(t, subKS, "diffsub-shared")
	})
	if subP == nil {
		t.Fatal("shared substrate kernel failed to build")
	}
	return subKS, subP, subInst
}
