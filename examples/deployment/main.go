// Deployment workflow: compile once, train once, ship the artifacts,
// run many times.
//
// This example walks the full production path a user of RSkip would
// take: a MiniC source with a per-loop pragma, control-flow checking
// layered on top, offline training persisted to a JSON profile, the
// transformed module serialized to .rir, and a fresh process reloading
// both artifacts and running without retraining.
//
//	go run ./examples/deployment
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/ir"
	"rskip/internal/machine"
)

const source = `
// Telemetry pipeline: a smoothing pass (prediction-protected) and a
// safety-critical threshold count pinned to exact validation.
void kernel(float samples[], float smooth[], int alarms[], int n, float limit) {
	for (int i = 0; i < n - 4; i++) {
		float s = 0.0;
		for (int j = 0; j < 4; j++) { s += samples[i + j]; }
		smooth[i] = s / 4.0;
	}
	#pragma rskip ar(0)
	for (int i = 0; i < n - 4; i++) {
		int hit = 0;
		for (int j = 0; j < 3; j++) {
			if (smooth[i] * float(j + 1) > limit) { hit++; }
		}
		alarms[i] = hit;
	}
}
`

func gen(seed int64, _ bench.Scale) bench.Instance {
	rng := rand.New(rand.NewSource(seed))
	n := 1024
	samples := make([]float64, n)
	v := 20.0
	for i := range samples {
		v += 0.05 + 0.02*(rng.Float64()-0.5)
		samples[i] = v
	}
	return bench.Instance{
		Elements: 2 * (n - 4),
		Setup: func(mem *machine.Memory) []uint64 {
			sb := mem.Alloc(int64(n))
			mem.CopyFloats(sb, samples)
			sm := mem.Alloc(int64(n))
			al := mem.Alloc(int64(n))
			return []uint64{uint64(sb), uint64(sm), uint64(al),
				uint64(int64(n)), 0} // limit patched by withLimit
		},
		Output: func(mem *machine.Memory) []uint64 {
			out := make([]uint64, n-4)
			for i := range out {
				out[i] = uint64(mem.GetInt(int64(2*n + i)))
			}
			return out
		},
	}
}

func main() {
	dir, err := os.MkdirTemp("", "rskip-deploy")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	b := bench.Benchmark{
		Name: "telemetry", Kernel: "kernel", Source: source,
		Domain: "example", Gen: withLimit(gen, 60.0),
	}
	cfg := core.DefaultConfig()
	cfg.EnableCFC = true

	// --- Build side: compile, train, persist artifacts. ---
	prog, err := core.Build(b, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d candidate loops, %d with ar(0) pragma\n",
		len(prog.Candidates), countOverrides(prog))
	if err := prog.Train([]int64{1, 2, 3}, bench.ScalePerf); err != nil {
		log.Fatal(err)
	}
	profilePath := filepath.Join(dir, "telemetry.profile.json")
	if err := prog.SaveProfile(profilePath); err != nil {
		log.Fatal(err)
	}
	modulePath := filepath.Join(dir, "telemetry.rir")
	mf, err := os.Create(modulePath)
	if err != nil {
		log.Fatal(err)
	}
	if err := prog.Module(core.RSkip).MarshalText(mf); err != nil {
		log.Fatal(err)
	}
	mf.Close()
	fmt.Printf("artifacts: %s, %s\n", filepath.Base(modulePath), filepath.Base(profilePath))

	// --- Deploy side: fresh build, reload the profile, run. ---
	fresh, err := core.Build(b, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := fresh.LoadProfile(profilePath); err != nil {
		log.Fatal(err)
	}
	// Sanity: the serialized module reloads and verifies.
	rf, err := os.Open(modulePath)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ir.UnmarshalText(rf); err != nil {
		log.Fatal(err)
	}
	rf.Close()

	inst := b.Gen(42, bench.ScalePerf)
	golden := fresh.Run(core.Unsafe, inst, core.RunOpts{})
	o := fresh.Run(core.RSkip, inst, core.RunOpts{})
	if golden.Err != nil || o.Err != nil {
		log.Fatal(golden.Err, o.Err)
	}
	sw := fresh.Run(core.SWIFTR, inst, core.RunOpts{})
	if sw.Err != nil {
		log.Fatal(sw.Err)
	}
	match := true
	for i := range golden.Output {
		match = match && o.Output[i] == golden.Output[i]
	}
	fmt.Printf("deployed run: %.2fx slowdown (SWIFT-R+CFC: %.2fx), %.1f%% skip, outputs match: %v\n",
		float64(o.Result.Cycles)/float64(golden.Result.Cycles),
		float64(sw.Result.Cycles)/float64(golden.Result.Cycles),
		100*o.SkipRate(), match)
	ids := make([]int, 0, len(o.Stats))
	for id := range o.Stats {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st := o.Stats[id]
		li := fresh.Module(core.RSkip).LoopByID(id)
		mode := "AR from config"
		if li.HasAROverride {
			mode = fmt.Sprintf("pragma ar(%g): exact validation", li.AROverride)
		}
		fmt.Printf("  loop %-18s skip %5.1f%%  (%s)\n", li.Name, 100*st.SkipRate(), mode)
	}
}

func countOverrides(p *core.Program) int {
	n := 0
	for _, li := range p.Module(core.RSkip).Loops {
		if li.HasAROverride {
			n++
		}
	}
	return n
}

// withLimit patches the scalar limit argument into the instance.
func withLimit(g func(int64, bench.Scale) bench.Instance, limit float64) func(int64, bench.Scale) bench.Instance {
	return func(seed int64, s bench.Scale) bench.Instance {
		inst := g(seed, s)
		setup := inst.Setup
		inst.Setup = func(mem *machine.Memory) []uint64 {
			args := setup(mem)
			args[len(args)-1] = math.Float64bits(limit)
			return args
		}
		return inst
	}
}
