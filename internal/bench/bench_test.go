package bench

import (
	"testing"

	"math/rand"

	"rskip/internal/analysis"
	"rskip/internal/lang"
	"rskip/internal/lower"
	"rskip/internal/machine"
)

func TestAllBenchmarksCompile(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			mod, err := lower.Compile(b.Name, b.Source)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if mod.FuncByName(b.Kernel) < 0 {
				t.Fatalf("kernel %q missing", b.Kernel)
			}
			cands := analysis.FindCandidates(mod, analysis.Options{})
			if len(cands) == 0 {
				t.Error("no candidate loops detected")
			}
		})
	}
}

func TestAllBenchmarksRunAtEveryScale(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			mod, err := lower.Compile(b.Name, b.Source)
			if err != nil {
				t.Fatal(err)
			}
			fi := mod.FuncByName(b.Kernel)
			for _, scale := range []Scale{ScaleTiny, ScaleFI} {
				inst := b.Gen(TestSeed(0), scale)
				m := machine.New(mod, machine.Config{TraceFn: -1})
				args := inst.Setup(m.Mem)
				res, err := m.Run(fi, args)
				if err != nil {
					t.Fatalf("scale %d: %v", scale, err)
				}
				if res.Instrs == 0 {
					t.Fatalf("scale %d: no instructions executed", scale)
				}
				out := inst.Output(m.Mem)
				if len(out) == 0 {
					t.Fatalf("scale %d: empty output", scale)
				}
				nonzero := false
				for _, w := range out {
					if w != 0 {
						nonzero = true
						break
					}
				}
				// yolo's output is argmax labels; every cell legitimately
				// picking class 0 is possible at tiny scale.
				if !nonzero && b.Name != "yolo" {
					t.Errorf("scale %d: output is all zeros — Output() base address is likely wrong", scale)
				}
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, b := range All() {
		i1 := b.Gen(TestSeed(1), ScaleTiny)
		i2 := b.Gen(TestSeed(1), ScaleTiny)
		mod, err := lower.Compile(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		fi := mod.FuncByName(b.Kernel)
		run := func(inst Instance) []uint64 {
			m := machine.New(mod, machine.Config{TraceFn: -1})
			args := inst.Setup(m.Mem)
			if _, err := m.Run(fi, args); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			return inst.Output(m.Mem)
		}
		o1, o2 := run(i1), run(i2)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("%s: same seed produced different outputs", b.Name)
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	for _, b := range All() {
		mod, err := lower.Compile(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		fi := mod.FuncByName(b.Kernel)
		run := func(seed int64) []uint64 {
			inst := b.Gen(seed, ScaleTiny)
			m := machine.New(mod, machine.Config{TraceFn: -1})
			args := inst.Setup(m.Mem)
			if _, err := m.Run(fi, args); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			return inst.Output(m.Mem)
		}
		a, bOut := run(TrainSeed(0)), run(TestSeed(0))
		same := len(a) == len(bOut)
		if same {
			allEq := true
			for i := range a {
				if a[i] != bOut[i] {
					allEq = false
					break
				}
			}
			same = allEq
		}
		if same && b.Name != "yolo" {
			// yolo outputs argmax labels, which may legitimately collide
			// across seeds at tiny scale.
			t.Errorf("%s: train and test seeds produced identical outputs", b.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("sgemm"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
	if len(All()) != 9 {
		t.Errorf("expected the paper's 9 benchmarks, have %d", len(All()))
	}
}

func TestTableOneMetadata(t *testing.T) {
	for _, b := range All() {
		if b.Domain == "" || b.Description == "" || b.Pattern == "" || b.Kernel == "" {
			t.Errorf("%s: incomplete Table 1 metadata: %+v", b.Name, b)
		}
	}
	bs, _ := ByName("blackscholes")
	if !bs.MemoEligible {
		t.Error("blackscholes must be memo-eligible (§4.2)")
	}
	for _, b := range All() {
		if b.Name != "blackscholes" && b.MemoEligible {
			t.Errorf("%s must not be memo-eligible", b.Name)
		}
	}
}

func TestSmoothFloatsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	vs := smoothFloats(rng, 256, -2, 2, 0.1)
	if len(vs) != 256 {
		t.Fatalf("len = %d", len(vs))
	}
	for _, v := range vs {
		if v < -2.5 || v > 2.5 {
			t.Fatalf("value %g outside padded bounds", v)
		}
	}
	// Clustered values stay near their centers.
	cs := clusteredFloats(rng, 100, []float64{10, 20}, 0.01)
	for _, v := range cs {
		near := (v > 9.8 && v < 10.2) || (v > 19.6 && v < 20.4)
		if !near {
			t.Fatalf("clustered value %g far from centers", v)
		}
	}
}

func TestBenchmarkSourcesRoundTripThroughFormatter(t *testing.T) {
	for _, b := range All() {
		prog, err := lang.Parse(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		formatted := lang.Format(prog)
		if _, err := lang.Parse(formatted); err != nil {
			t.Fatalf("%s: formatted source does not re-parse: %v\n%s", b.Name, err, formatted)
		}
		// The formatted source must compile to a module with the same
		// candidate count.
		mod1, err := lower.Compile(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		mod2, err := lower.Compile(b.Name, formatted)
		if err != nil {
			t.Fatalf("%s: formatted source does not compile: %v", b.Name, err)
		}
		c1 := analysis.FindCandidates(mod1, analysis.Options{})
		c2 := analysis.FindCandidates(mod2, analysis.Options{})
		if len(c1) != len(c2) {
			t.Errorf("%s: candidates changed after formatting: %d vs %d",
				b.Name, len(c1), len(c2))
		}
	}
}

// ParseScale accepts every spelling the CLIs and the daemon take.
func TestParseScale(t *testing.T) {
	for name, want := range map[string]Scale{
		"": ScaleFI, "fi": ScaleFI, "perf": ScalePerf, "tiny": ScaleTiny, "PERF": ScalePerf,
	} {
		if got, err := ParseScale(name); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error(`ParseScale("huge") accepted`)
	}
}
