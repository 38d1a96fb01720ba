package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "name", "value")
	tb.Row("alpha", "1")
	tb.Row("a-much-longer-name", "2")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Errorf("title line = %q", lines[0])
	}
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: each data line has the value in the same column.
	idx := strings.Index(lines[1], "value")
	for _, ln := range lines[3:] {
		if len(ln) <= idx {
			t.Errorf("row too short for aligned column: %q", ln)
		}
	}
}

func TestTableMissingCells(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.Row("only-one")
	if out := tb.String(); !strings.Contains(out, "only-one") {
		t.Errorf("row lost: %q", out)
	}
}

func TestBar(t *testing.T) {
	if got := Bar(0.5, 10); got != "#####....." {
		t.Errorf("Bar(0.5,10) = %q", got)
	}
	if got := Bar(0, 4); got != "...." {
		t.Errorf("Bar(0) = %q", got)
	}
	if got := Bar(1, 4); got != "####" {
		t.Errorf("Bar(1) = %q", got)
	}
	if got := Bar(-3, 4); got != "...." {
		t.Errorf("negative clamps: %q", got)
	}
	if got := Bar(7, 4); got != "####" {
		t.Errorf("overflow clamps: %q", got)
	}
	if got := Bar(math.NaN(), 4); got != "...." {
		t.Errorf("NaN clamps: %q", got)
	}
}

func TestSummaries(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if Median(xs) != 2.5 {
		t.Errorf("Median = %g", Median(xs))
	}
	if Median([]float64{1, 2, 9}) != 2 {
		t.Errorf("odd median wrong")
	}
	mn, mx := MinMax(xs)
	if mn != 1 || mx != 4 {
		t.Errorf("MinMax = %g %g", mn, mx)
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty inputs should produce 0")
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.5) != "50.00%" {
		t.Errorf("Pct = %q", Pct(0.5))
	}
	if X(1.275) != "1.27x" && X(1.275) != "1.28x" {
		t.Errorf("X = %q", X(1.275))
	}
}

func TestWilsonKnownValues(t *testing.T) {
	// Classic textbook case: 10 successes in 10 trials at 95% gives
	// [0.722, 1.0] (lower bound ≈ z²/(n+z²) complement).
	lo, hi := Wilson(10, 10, Z95)
	if math.Abs(lo-0.7225) > 0.005 || hi != 1 {
		t.Errorf("Wilson(10,10) = [%g,%g], want [~0.722,1]", lo, hi)
	}
	// Symmetric case: k = n/2 centers the interval on 0.5.
	lo, hi = Wilson(50, 100, Z95)
	if math.Abs((lo+hi)/2-0.5) > 1e-9 {
		t.Errorf("Wilson(50,100) not centered: [%g,%g]", lo, hi)
	}
	if math.Abs(lo-0.4038) > 0.005 || math.Abs(hi-0.5962) > 0.005 {
		t.Errorf("Wilson(50,100) = [%g,%g], want ~[0.404,0.596]", lo, hi)
	}
	// Zero successes still excludes only the top of the range.
	lo, hi = Wilson(0, 20, Z95)
	if lo != 0 || hi < 0.1 || hi > 0.2 {
		t.Errorf("Wilson(0,20) = [%g,%g]", lo, hi)
	}
}

func TestWilsonDegenerate(t *testing.T) {
	if lo, hi := Wilson(0, 0, Z95); lo != 0 || hi != 1 {
		t.Errorf("n=0 should be vacuous, got [%g,%g]", lo, hi)
	}
	if lo, hi := Wilson(-5, 10, Z95); lo != 0 || hi >= 0.5 {
		t.Errorf("negative k should clamp, got [%g,%g]", lo, hi)
	}
	if _, hi := Wilson(15, 10, Z95); hi != 1 {
		t.Errorf("k>n should clamp, got hi=%g", hi)
	}
}

// Property: the interval contains the point estimate, stays in [0,1],
// and shrinks as n grows at fixed proportion.
func TestWilsonProperties(t *testing.T) {
	check := func(k8, n8 uint8) bool {
		n := int(n8%200) + 1
		k := int(k8) % (n + 1)
		lo, hi := Wilson(k, n, Z95)
		p := float64(k) / float64(n)
		if lo < 0 || hi > 1 || lo > hi {
			return false
		}
		return lo <= p+1e-12 && p <= hi+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{10, 100, 1000} {
		lo1, hi1 := Wilson(n/2, n, Z95)
		lo2, hi2 := Wilson(n*5, n*10, Z95)
		if hi2-lo2 >= hi1-lo1 {
			t.Errorf("interval did not shrink from n=%d to n=%d", n, n*10)
		}
	}
}

// Property: Mean is bounded by MinMax.
func TestMeanBounded(t *testing.T) {
	check := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		mn, mx := MinMax(xs)
		m := Mean(xs)
		return m >= mn-1e-6 && m <= mx+1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWilsonEdgeCases pins the exact boundary behavior campaign code
// depends on: degenerate sample sizes, exact proportions at both ends,
// and the single-observation intervals.
func TestWilsonEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		k, n    int
		z       float64
		wantLo  float64 // -1 means "just check containment"
		wantHi  float64
		loExact bool
		hiExact bool
	}{
		{name: "n=0 is vacuous", k: 0, n: 0, z: Z95, wantLo: 0, wantHi: 1, loExact: true, hiExact: true},
		{name: "n=0 ignores k", k: 7, n: 0, z: Z95, wantLo: 0, wantHi: 1, loExact: true, hiExact: true},
		{name: "negative n is vacuous", k: 3, n: -2, z: Z95, wantLo: 0, wantHi: 1, loExact: true, hiExact: true},
		{name: "p=0 pins the lower bound", k: 0, n: 100, z: Z95, wantLo: 0, wantHi: -1, loExact: true},
		{name: "p=1 pins the upper bound", k: 100, n: 100, z: Z95, wantLo: -1, wantHi: 1, hiExact: true},
		{name: "n=1 failure", k: 0, n: 1, z: Z95, wantLo: 0, wantHi: -1, loExact: true},
		{name: "n=1 success", k: 1, n: 1, z: Z95, wantLo: -1, wantHi: 1, hiExact: true},
		{name: "z=0 collapses to the point estimate", k: 3, n: 4, z: 0, wantLo: 0.75, wantHi: 0.75, loExact: true, hiExact: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lo, hi := Wilson(tc.k, tc.n, tc.z)
			if lo < 0 || hi > 1 || lo > hi {
				t.Fatalf("interval [%g, %g] not a sub-interval of [0,1]", lo, hi)
			}
			if tc.loExact && lo != tc.wantLo {
				t.Errorf("lo = %g, want exactly %g", lo, tc.wantLo)
			}
			if tc.hiExact && hi != tc.wantHi {
				t.Errorf("hi = %g, want exactly %g", hi, tc.wantHi)
			}
			if tc.n > 0 {
				k := tc.k
				if k < 0 {
					k = 0
				}
				if k > tc.n {
					k = tc.n
				}
				p := float64(k) / float64(tc.n)
				if p < lo-1e-12 || p > hi+1e-12 {
					t.Errorf("point estimate %g outside [%g, %g]", p, lo, hi)
				}
			}
		})
	}

	// The n=1 intervals must be genuinely informative: one success
	// should rule out proportions near zero no better than ~[0.2, 1],
	// and must be strictly tighter than the vacuous [0, 1].
	lo, hi := Wilson(1, 1, Z95)
	if !(lo > 0 && lo < 0.5) || hi != 1 {
		t.Errorf("Wilson(1,1) = [%g, %g], want lower bound in (0, 0.5) and hi = 1", lo, hi)
	}
	lo0, hi0 := Wilson(0, 1, Z95)
	if lo0 != 0 || !(hi0 > 0.5 && hi0 < 1) {
		t.Errorf("Wilson(0,1) = [%g, %g], want [0, hi] with hi in (0.5, 1)", lo0, hi0)
	}
	// Symmetry: the k=0 and k=n intervals mirror each other.
	if math.Abs((1-hi0)-lo) > 1e-9 {
		t.Errorf("Wilson(0,1) and Wilson(1,1) are not mirrored: %g vs %g", 1-hi0, lo)
	}
}
