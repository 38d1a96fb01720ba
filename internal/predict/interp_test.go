package predict

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func pts(vs ...float64) []Point {
	out := make([]Point, len(vs))
	for i, v := range vs {
		out[i] = Point{Iter: int64(i), V: v}
	}
	return out
}

func feed(it *Interp, points []Point) (phases [][]Point) {
	for _, p := range points {
		if ph, cut := it.Observe(p); cut {
			phases = append(phases, ph)
		}
	}
	if ph := it.Flush(); len(ph) > 0 {
		phases = append(phases, ph)
	}
	return phases
}

func TestSlopeChange(t *testing.T) {
	cases := []struct {
		prev, cur, value, want float64
	}{
		{1, 1, 10, 0},
		{1, 2, 10, 1},   // |2-1|/|1|
		{2, 1, 10, 0.5}, // |1-2|/|2|
		{1, -1, 10, 2},  // sign flip
		{0, 0, 10, 0},   // flat trend stays flat
		{-2, -2, 10, 0},
		{0.5, -160, 200, 321}, // a jump after a shallow slope reads huge
	}
	for _, tt := range cases {
		if got := SlopeChange(tt.prev, tt.cur, tt.value); math.Abs(got-tt.want) > 1e-6*tt.want+1e-9 {
			t.Errorf("SlopeChange(%g, %g, %g) = %g, want %g", tt.prev, tt.cur, tt.value, got, tt.want)
		}
	}
	// Plateau: slopes that are float noise relative to the value do not
	// register as trend breaks.
	if got := SlopeChange(1e-13, 5e-13, 1.0); got > 0.01 {
		t.Errorf("plateau noise produced change %g", got)
	}
}

func TestLinearSeriesOnePhase(t *testing.T) {
	it := NewInterp(0.1)
	phases := feed(it, pts(1, 2, 3, 4, 5, 6, 7, 8))
	if len(phases) != 1 {
		t.Fatalf("perfectly linear series split into %d phases", len(phases))
	}
	accepted := 0
	for i := range phases[0] {
		if Accepted(phases[0], i, 0.01) {
			accepted++
		}
	}
	if accepted != 6 || Accepted(phases[0], 0, 1e9) || Accepted(phases[0], 7, 1e9) {
		t.Errorf("linear phase: %d interiors accepted, want all 6 and neither endpoint", accepted)
	}
}

func TestTrendBreakCuts(t *testing.T) {
	// Figure 5's sketch: rising trend, then a sharp break at iter 4.
	series := pts(1, 2, 3, 4, 1, -2, -5)
	it := NewInterp(0.2)
	phases := feed(it, series)
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2 (cut at the break): %+v", len(phases), phases)
	}
	if phases[0][len(phases[0])-1].Iter != 3 {
		t.Errorf("first phase should end at iter 3, ends at %d",
			phases[0][len(phases[0])-1].Iter)
	}
}

func TestHigherTPExtendsPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	series := make([]Point, 200)
	v := 0.0
	for i := range series {
		v += 1 + 0.3*rng.Float64() // noisy rising trend
		series[i] = Point{Iter: int64(i), V: v}
	}
	low := feed(NewInterp(0.05), append([]Point(nil), series...))
	high := feed(NewInterp(1.0), append([]Point(nil), series...))
	if len(high) >= len(low) {
		t.Errorf("higher TP should produce fewer phases: tp=1.0 %d phases, tp=0.05 %d phases",
			len(high), len(low))
	}
}

// Property: every observed point appears in exactly one phase as a
// countable element (endpoints shared between phases are marked
// Validated in the successor phase and skipped by scoring).
func TestEveryPointValidatedOnce(t *testing.T) {
	check := func(seed int64, tpRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := 0.05 + float64(tpRaw)/64.0
		n := 20 + rng.Intn(200)
		it := NewInterp(tp)
		counted := 0
		count := func(ph []Point) {
			for _, p := range ph {
				if !p.Validated {
					counted++
				}
			}
		}
		for i := 0; i < n; i++ {
			p := Point{Iter: int64(i), V: rng.NormFloat64() * 10}
			if ph, cut := it.Observe(p); cut {
				count(ph)
			}
		}
		count(it.Flush())
		return counted == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictEndpointsExact(t *testing.T) {
	first := Point{Iter: 10, V: 3}
	last := Point{Iter: 20, V: 13}
	if Predict(first, last, 10) != 3 || Predict(first, last, 20) != 13 {
		t.Error("interpolant must pass through endpoints")
	}
	if Predict(first, last, 15) != 8 {
		t.Errorf("midpoint = %g, want 8", Predict(first, last, 15))
	}
	// Degenerate zero-length phase.
	if Predict(first, first, 10) != 3 {
		t.Error("degenerate phase prediction")
	}
}

func TestRelDiff(t *testing.T) {
	if RelDiff(10, 10) != 0 {
		t.Error("identical values must have zero diff")
	}
	if got := RelDiff(12, 10); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("RelDiff(12,10) = %g, want 0.2", got)
	}
	if got := RelDiff(1, 0); got < 1e6 {
		t.Errorf("diff against zero prediction should be huge, got %g", got)
	}
	if RelDiff(0, 0) != 0 {
		t.Error("both zero should be zero diff")
	}
}

func TestResetClearsState(t *testing.T) {
	it := NewInterp(0.5)
	feed(it, pts(1, 5, 2, 8, 3))
	it.Reset()
	if it.Pending() != 0 || len(it.Changes) != 0 {
		t.Error("Reset left state behind")
	}
	phases := feed(it, pts(1, 2, 3))
	if len(phases) != 1 {
		t.Errorf("fresh series after Reset: %d phases", len(phases))
	}
}

func TestFlushEmpty(t *testing.T) {
	it := NewInterp(0.5)
	if ph := it.Flush(); ph != nil {
		t.Errorf("empty flush returned %v", ph)
	}
}

func TestSeedCarriesValidatedFlag(t *testing.T) {
	it := NewInterp(0.1)
	// Break the trend so a cut happens; the next phase's first point
	// must be marked Validated (it was the previous phase's endpoint).
	var phases [][]Point
	for _, p := range pts(1, 2, 3, 10, 20, 30, -5) {
		if ph, cut := it.Observe(p); cut {
			phases = append(phases, ph)
		}
	}
	if len(phases) < 2 {
		t.Fatalf("expected at least 2 cuts, got %d", len(phases))
	}
	second := phases[1]
	if !second[0].Validated {
		t.Error("phase seed point must carry the Validated flag")
	}
}

// TestInterpCloneIndependent: a clone continues exactly like the
// original, and neither copy's later observations reach the other.
func TestInterpCloneIndependent(t *testing.T) {
	it := NewInterp(0.5)
	for i := int64(0); i < 5; i++ {
		it.Observe(Point{Iter: i, V: float64(i)})
	}
	c := it.Clone()
	feed := func(in *Interp) ([]Point, []float64) {
		var phases []Point
		for i := int64(5); i < 9; i++ {
			if ph, cut := in.Observe(Point{Iter: i, V: float64(i * i)}); cut {
				phases = append(phases, ph...)
			}
		}
		return append(phases, in.Flush()...), append([]float64(nil), in.Changes...)
	}
	p1, ch1 := feed(it)
	if it.Pending() != 0 || c.Pending() != 5 {
		t.Fatalf("pending after feeding the original: %d and clone %d, want 0 and 5", it.Pending(), c.Pending())
	}
	p2, ch2 := feed(c)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(ch1, ch2) {
		t.Errorf("clone diverged from the original:\n  %v %v\n  %v %v", p1, ch1, p2, ch2)
	}
}

// TestInterpSame: the slicer equality notices every field — floats by
// bits, so -0 and +0 differ — and treats nil and empty buffers alike;
// point equality keeps nil memo inputs apart from empty ones.
func TestInterpSame(t *testing.T) {
	base := func() *Interp {
		it := NewInterp(0.25)
		it.Observe(Point{Iter: 0, V: 1})
		it.Observe(Point{Iter: 1, V: 2})
		it.Observe(Point{Iter: 2, V: 3})
		return it
	}
	if !base().Same(base()) || !base().Same(base().Clone()) {
		t.Fatal("identical slicers differ")
	}
	for name, mut := range map[string]func(it *Interp){
		"TP":        func(it *Interp) { it.TP = 0.5 },
		"points":    func(it *Interp) { it.pts[1].V = 2.5 },
		"slope":     func(it *Interp) { it.prevSlope = math.Copysign(0, -1) },
		"haveSlope": func(it *Interp) { it.haveSlope = false },
		"changes":   func(it *Interp) { it.Changes[0] = math.Copysign(it.Changes[0], -1) },
		"memo":      func(it *Interp) { it.pts[0].MemoIn = []float64{} },
	} {
		it := base()
		mut(it)
		if it.Same(base()) || base().Same(it) {
			t.Errorf("a change in %s goes unnoticed", name)
		}
	}
	a, b := NewInterp(0.25), NewInterp(0.25)
	a.pts, a.Changes = []Point{}, []float64{}
	if !a.Same(b) {
		t.Error("empty and nil buffers differ")
	}
	pt := reflect.TypeOf(Point{})
	for i := 0; i < pt.NumField(); i++ {
		p, q := Point{}, Point{}
		f := reflect.ValueOf(&q).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(1)
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Float64:
			f.SetFloat(math.Copysign(0, -1))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 0, 0))
		default:
			t.Fatalf("Point.%s has a kind the test cannot perturb", pt.Field(i).Name)
		}
		if SamePoints([]Point{p}, []Point{q}) {
			t.Errorf("a change in Point.%s goes unnoticed", pt.Field(i).Name)
		}
	}
}

// Pending returns the number of buffered (not yet validated) points.
func (it *Interp) Pending() int { return len(it.pts) }
