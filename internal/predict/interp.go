// Package predict implements RSkip's two approximation models:
// dynamic interpolation (a phase-sliced linear value predictor driven
// by the redundant computation stream) and approximate memoization (a
// profile-quantized lookup table for pure function calls). Both are
// pure algorithms shared by the run-time management system and the
// offline trainer, which "simulates the algorithm on samples" exactly
// as the paper describes.
package predict

import "math"

// Point is one observed loop output element.
type Point struct {
	Iter int64   // iteration ordinal within the loop invocation
	V    float64 // value in trend space (ints are converted)
	Bits uint64  // raw stored bits
	Addr int64   // destination address of the hot store
	Old  uint64  // pre-store memory bits (for read-modify-write slices)
	// Validated marks a point that was already exactly validated as
	// the endpoint of the previous phase, so it must not be validated
	// (or counted) again.
	Validated bool
	// MemoIn carries the iteration's memo-function inputs when the
	// second-level predictor is armed for the loop.
	MemoIn []float64
}

// SlopeChange returns the relative change between consecutive slopes,
// the quantity compared against the tuning parameter (TP) in Figure 5:
// |cur-prev| / |prev|, the paper's formula. The denominator is floored
// at a tiny fraction of the value's magnitude so plateaus (slopes that
// are pure floating-point noise) read as unchanged instead of dividing
// by noise, while a genuine jump after a shallow slope still reads as
// an enormous change and cuts the phase.
func SlopeChange(prev, cur, value float64) float64 {
	d := math.Abs(cur - prev)
	den := math.Abs(prev)
	if floor := 1e-9 + 1e-7*math.Abs(value); den < floor {
		den = floor
	}
	return d / den
}

// Interp is the dynamic interpolation phase slicer. Feed points with
// Observe; when the slope change exceeds TP the current phase is cut
// and returned for validation. Flush returns the final partial phase.
type Interp struct {
	// TP is the tuning parameter: the maximum relative slope change a
	// phase tolerates before it is cut. Run-time management adjusts it
	// per context signature.
	TP float64

	pts       []Point
	prevSlope float64
	haveSlope bool

	// Changes records the recent slope-change magnitudes; the run-time
	// management system summarizes them into context signatures.
	Changes []float64
}

// NewInterp returns a slicer with the given tuning parameter.
func NewInterp(tp float64) *Interp {
	return &Interp{TP: tp}
}

// Reset clears phase state for a new loop invocation, keeping TP.
func (it *Interp) Reset() {
	it.pts = it.pts[:0]
	it.haveSlope = false
	it.Changes = it.Changes[:0]
}

// Clone returns an independent copy of the slicer: the buffered
// points and the recorded slope changes are copied, so neither copy's
// later Observe, Reset or Flush affects the other.
func (it *Interp) Clone() *Interp {
	c := *it
	c.pts = append([]Point(nil), it.pts...)
	c.Changes = append([]float64(nil), it.Changes...)
	return &c
}

// Same reports whether two slicers are in the same state: TP, the
// buffered points, the slope state and the recorded slope changes.
// Floats compare by bits (== would equate -0 and +0 and never equate
// NaNs); a nil and an empty buffer are the same state.
func (it *Interp) Same(o *Interp) bool {
	return math.Float64bits(it.TP) == math.Float64bits(o.TP) &&
		math.Float64bits(it.prevSlope) == math.Float64bits(o.prevSlope) &&
		it.haveSlope == o.haveSlope &&
		SameFloats(it.Changes, o.Changes) && SamePoints(it.pts, o.pts)
}

// SameFloats compares two float slices by bits; nil equals empty.
func SameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// SamePoints compares two point slices field by field, floats by
// bits. MemoIn keeps nil (no memo inputs) apart from empty.
func SamePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := &a[i], &b[i]
		if p.Iter != q.Iter || math.Float64bits(p.V) != math.Float64bits(q.V) || p.Bits != q.Bits ||
			p.Addr != q.Addr || p.Old != q.Old || p.Validated != q.Validated ||
			(p.MemoIn == nil) != (q.MemoIn == nil) || !SameFloats(p.MemoIn, q.MemoIn) {
			return false
		}
	}
	return true
}

// Observe feeds the next point. When the trend breaks, it returns the
// completed phase (cut=true); the slicer keeps the phase's last point
// (already validated as an endpoint) plus p as the seed of the next
// phase, exactly as Figure 5d sketches.
func (it *Interp) Observe(p Point) (phase []Point, cut bool) {
	n := len(it.pts)
	if n == 0 {
		it.pts = append(it.pts, p)
		return nil, false
	}
	last := it.pts[n-1]
	slope := p.V - last.V
	if !it.haveSlope {
		it.prevSlope = slope
		it.haveSlope = true
		it.pts = append(it.pts, p)
		return nil, false
	}
	change := SlopeChange(it.prevSlope, slope, p.V)
	it.Changes = append(it.Changes, change)
	if change <= it.TP {
		it.prevSlope = slope
		it.pts = append(it.pts, p)
		return nil, false
	}
	// Cut: the buffered points form a phase; the next phase starts at
	// the previous endpoint and extends with the outlier.
	phase = append([]Point(nil), it.pts...)
	seed := last
	seed.Validated = true // will be exactly validated as this phase's endpoint
	it.pts = it.pts[:0]
	it.pts = append(it.pts, seed, p)
	it.prevSlope = p.V - seed.V
	it.haveSlope = true
	return phase, true
}

// Flush returns the remaining buffered points as a final phase at loop
// exit. The slicer is left empty.
func (it *Interp) Flush() []Point {
	if len(it.pts) == 0 {
		return nil
	}
	phase := append([]Point(nil), it.pts...)
	it.pts = it.pts[:0]
	it.haveSlope = false
	return phase
}

// Predict returns the linear interpolation of iteration iter between
// the phase's endpoints.
func Predict(first, last Point, iter int64) float64 {
	if last.Iter == first.Iter {
		return first.V
	}
	t := float64(iter-first.Iter) / float64(last.Iter-first.Iter)
	return first.V + (last.V-first.V)*t
}

// RelDiff returns the relative difference |orig-pred| / |pred| used by
// fuzzy validation; the denominator is epsilon-guarded so exact-zero
// predictions compare absolutely.
func RelDiff(orig, pred float64) float64 {
	den := math.Abs(pred)
	if den < 1e-12 {
		den = 1e-12
	}
	return math.Abs(orig-pred) / den
}

// Accepted is fuzzy validation's rule for point i of a completed
// phase at acceptable range ar: an interior point is accepted when it
// lies within ar of the interpolant between the phase's endpoints.
// Endpoints, which interpolation cannot estimate, never are. The
// run-time check and the trainer's skip scoring both apply it.
func Accepted(phase []Point, i int, ar float64) bool {
	if i <= 0 || i >= len(phase)-1 {
		return false
	}
	return RelDiff(phase[i].V, Predict(phase[0], phase[len(phase)-1], phase[i].Iter)) <= ar
}
