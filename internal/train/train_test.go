package train

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rskip/internal/analysis"
	"rskip/internal/ir"
	"rskip/internal/lower"
	"rskip/internal/machine"
	"rskip/internal/transform"
)

func buildPP(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := lower.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	rsk, err := transform.ApplyRSkip(mod, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rsk
}

const rampSrc = `
void kernel(float a[], float out[], int n) {
	for (int i = 0; i < n; i = i + 1) {
		float s = 0.0;
		for (int j = 0; j < 4; j = j + 1) { s = s + a[i + j]; }
		out[i] = s;
	}
}
`

func rampSetup(slope float64) func(mem *machine.Memory) []uint64 {
	return func(mem *machine.Memory) []uint64 {
		n := 96
		a := mem.Alloc(int64(n + 4))
		for i := 0; i < n+4; i++ {
			mem.SetFloat(a+int64(i), 1+slope*float64(i))
		}
		out := mem.Alloc(int64(n))
		return []uint64{uint64(a), uint64(out), uint64(n)}
	}
}

func TestTrainingBuildsQoS(t *testing.T) {
	rsk := buildPP(t, rampSrc)
	kernel := rsk.FuncByName("kernel")
	res, err := Run(rsk, kernel,
		[]func(mem *machine.Memory) []uint64{rampSetup(0.5), rampSetup(1.0)},
		Config{AR: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	id := rsk.Loops[0].ID
	if res.Samples[id] != 192 {
		t.Errorf("sampled %d elements, want 192", res.Samples[id])
	}
	q := res.QoS[id]
	if q == nil {
		t.Fatal("no QoS model")
	}
	if q.Default <= 0 {
		t.Errorf("default TP = %g", q.Default)
	}
	// Memo is not applicable here (no Figure 4a pattern).
	if len(res.Memo) != 0 {
		t.Errorf("unexpected memo tables: %v", res.Memo)
	}
}

func TestTrainingMemoDeployment(t *testing.T) {
	// A pure-call kernel over a small repeating input domain: the memo
	// table must train accurately and be deployed.
	src := `
float price(float a, float b) {
	return sqrt(a) * exp(b * 0.1) + log(a + b + 2.0) * a;
}
void kernel(float x[], float y[], float out[], int n) {
	for (int i = 0; i < n; i = i + 1) {
		float p = price(x[i], y[i]);
		out[i] = p;
	}
}`
	rsk := buildPP(t, src)
	kernel := rsk.FuncByName("kernel")
	setup := func(seed int64) func(mem *machine.Memory) []uint64 {
		return func(mem *machine.Memory) []uint64 {
			n := 512
			x := mem.Alloc(int64(n))
			y := mem.Alloc(int64(n))
			for i := 0; i < n; i++ {
				// Clustered domain: a few distinct values.
				mem.SetFloat(x+int64(i), float64(1+(i*7+int(seed))%5))
				mem.SetFloat(y+int64(i), float64(1+(i*3+int(seed))%4))
			}
			out := mem.Alloc(int64(n))
			return []uint64{uint64(x), uint64(y), uint64(out), uint64(n)}
		}
	}
	res, err := Run(rsk, kernel,
		[]func(mem *machine.Memory) []uint64{setup(0), setup(1), setup(2)},
		Config{AR: 0.2, MemoBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	id := rsk.Loops[0].ID
	if rsk.Loops[0].MemoFn < 0 {
		t.Fatal("memo pattern not detected")
	}
	if acc := res.MemoAccuracy[id]; acc < 0.95 {
		t.Errorf("memo accuracy %.3f on a 20-point domain", acc)
	}
	if res.Memo[id] == nil {
		t.Error("accurate table was not deployed")
	}
}

func TestTrainingQoSSweepPicksSensibleTP(t *testing.T) {
	// A bumpy-but-trending input punishes timid TPs (they cut at every
	// bump, drowning in endpoints); the sweep must find a tolerant one.
	rsk := buildPP(t, rampSrc)
	kernel := rsk.FuncByName("kernel")
	bumpy := func(mem *machine.Memory) []uint64 {
		n := 96
		a := mem.Alloc(int64(n + 4))
		for i := 0; i < n+4; i++ {
			// A slow ramp carrying a small period-8 square wave: the
			// windowed sums oscillate a few percent around a large mean,
			// so timid TPs cut at every wavefront (mostly endpoints)
			// while a tolerant TP rides one long phase whose interiors
			// pass AR20 easily.
			v := 100.0 + 0.05*float64(i)
			if (i/4)%2 == 0 {
				v += 3
			} else {
				v -= 3
			}
			mem.SetFloat(a+int64(i), v)
		}
		out := mem.Alloc(int64(n))
		return []uint64{uint64(a), uint64(out), uint64(n)}
	}
	res, err := Run(rsk, kernel,
		[]func(mem *machine.Memory) []uint64{bumpy},
		Config{AR: 0.2, TPSweep: []float64{0.02, 0.25, 2.0}})
	if err != nil {
		t.Fatal(err)
	}
	q := res.QoS[rsk.Loops[0].ID]
	if q.Default == 0.02 {
		t.Errorf("sweep picked the most timid TP %g for a bumpy trend", q.Default)
	}
}

func TestCollect(t *testing.T) {
	rsk := buildPP(t, rampSrc)
	series, counters, err := Collect(rsk, rsk.FuncByName("kernel"), rampSetup(1.0))
	if err != nil {
		t.Fatal(err)
	}
	id := rsk.Loops[0].ID
	if len(series[id]) != 1 {
		t.Fatalf("got %d invocations, want 1", len(series[id]))
	}
	pts := series[id][0]
	if len(pts) != 96 {
		t.Fatalf("got %d points, want 96", len(pts))
	}
	// Values are the 4-element window sums of the ramp.
	for i, p := range pts {
		want := 4 + float64(4*i+6)
		if p.V != want {
			t.Fatalf("point %d = %g, want %g", i, p.V, want)
		}
		if p.Iter != int64(i) {
			t.Fatalf("iter %d recorded as %d", i, p.Iter)
		}
	}
	if counters.Dyn == 0 {
		t.Error("counters not recorded")
	}
}

func TestTrainingFailsOnBrokenRun(t *testing.T) {
	rsk := buildPP(t, rampSrc)
	kernel := rsk.FuncByName("kernel")
	bad := func(mem *machine.Memory) []uint64 {
		// Invalid base address: the run must fail, and training must
		// surface it.
		return []uint64{uint64(machine.MappedLimit), uint64(machine.MappedLimit), 8}
	}
	if _, err := Run(rsk, kernel, []func(mem *machine.Memory) []uint64{bad}, Config{AR: 0.2}); err == nil {
		t.Error("training on a crashing run must error")
	}
}

// A loop with a `#pragma rskip ar(x)` override is validated at x
// whatever the global AR, so it must be trained at x too: the same
// QoS model and memo gate as the loop without the pragma trained at a
// global AR of x.
func TestPragmaARTrainsAtLoopAR(t *testing.T) {
	const noisy = `
void kernel(float a[], float out[], int n) {
	%s
	for (int i = 0; i < n; i = i + 1) {
		float s = 0.0;
		for (int j = 0; j < 4; j = j + 1) { s = s + a[i + j]; }
		out[i] = s;
	}
}`
	noisySetup := func(seed int64) func(mem *machine.Memory) []uint64 {
		return func(mem *machine.Memory) []uint64 {
			rng := rand.New(rand.NewSource(seed))
			n := 128
			a := mem.Alloc(int64(n + 4))
			for i := 0; i < n+4; i++ {
				mem.SetFloat(a+int64(i), float64(i)+rng.Float64()*0.3)
			}
			out := mem.Alloc(int64(n))
			return []uint64{uint64(a), uint64(out), uint64(n)}
		}
	}
	const priced = `
float price(float a, float b) {
	return sqrt(a) * exp(b * 0.1) + log(a + b + 2.0) * a;
}
void kernel(float x[], float y[], float out[], int n) {
	%s
	for (int i = 0; i < n; i = i + 1) {
		float p = price(x[i], y[i]);
		out[i] = p;
	}
}`
	pricedSetup := func(seed int64) func(mem *machine.Memory) []uint64 {
		return func(mem *machine.Memory) []uint64 {
			rng := rand.New(rand.NewSource(seed))
			n := 512
			x := mem.Alloc(int64(n))
			y := mem.Alloc(int64(n))
			for i := 0; i < n; i++ {
				mem.SetFloat(x+int64(i), 1+4*rng.Float64())
				mem.SetFloat(y+int64(i), 1+3*rng.Float64())
			}
			out := mem.Alloc(int64(n))
			return []uint64{uint64(x), uint64(y), uint64(out), uint64(n)}
		}
	}
	train := func(src, pragma string, setup func(int64) func(*machine.Memory) []uint64, ar float64) (*Result, int) {
		rsk := buildPP(t, fmt.Sprintf(src, pragma))
		res, err := Run(rsk, rsk.FuncByName("kernel"),
			[]func(mem *machine.Memory) []uint64{setup(1), setup(2), setup(3)},
			Config{AR: ar, MemoBits: 10, MemoAccuracyMin: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return res, rsk.Loops[0].ID
	}
	for _, tc := range []struct {
		name   string
		src    string
		setup  func(int64) func(*machine.Memory) []uint64
		loopAR float64
		global float64
	}{
		{"noisy ar(0)", noisy, noisySetup, 0, 0.2},
		{"priced ar(0.002)", priced, pricedSetup, 0.002, 0.5},
	} {
		pragma, pid := train(tc.src, fmt.Sprintf("#pragma rskip ar(%g)", tc.loopAR), tc.setup, tc.global)
		plain, id := train(tc.src, "", tc.setup, tc.loopAR)
		if !reflect.DeepEqual(pragma.QoS[pid], plain.QoS[id]) {
			t.Errorf("%s: QoS model %+v, want %+v (the loop trained at its own AR)", tc.name, pragma.QoS[pid], plain.QoS[id])
		}
		if pragma.MemoAccuracy[pid] != plain.MemoAccuracy[id] || (pragma.Memo[pid] == nil) != (plain.Memo[id] == nil) {
			t.Errorf("%s: memo accuracy %g (deployed %v), want %g (deployed %v)", tc.name,
				pragma.MemoAccuracy[pid], pragma.Memo[pid] != nil, plain.MemoAccuracy[id], plain.Memo[id] != nil)
		}
	}
}
