package bench

import (
	"math"
	"math/rand"
)

// Input generation. Training and test inputs are drawn from disjoint
// seed ranges (the harness uses TrainSeed/TestSeed); each seed fully
// determines the instance, so every scheme of a campaign replays the
// identical input. Real workloads carry the spatio-value similarity
// the paper's predictors exploit, so the generators synthesize
// smooth signals (sums of low-frequency waves) plus bounded noise
// rather than white noise.

// TrainSeed returns the i-th training seed for a benchmark.
func TrainSeed(i int) int64 { return 1000 + int64(i) }

// TrainSeeds returns the first n training seeds (none for n <= 0).
func TrainSeeds(n int) []int64 {
	seeds := make([]int64, max(n, 0))
	for i := range seeds {
		seeds[i] = TrainSeed(i)
	}
	return seeds
}

// TestSeed returns the i-th test seed; disjoint from training.
func TestSeed(i int) int64 { return 900000 + int64(i) }

// smoothFloats synthesizes a piecewise-linear trend signal of n
// samples in [lo, hi] with relative noise: a handful of segments with
// distinct slopes, joined continuously, plus bounded jitter. This is
// the spatio-value similarity (§2) real workload data exhibits and the
// shape Figure 5 sketches — local linear trends separated by slope
// breaks, with occasional outliers.
func smoothFloats(rng *rand.Rand, n int, lo, hi, noise float64) []float64 {
	out := make([]float64, n)
	segs := 4 + rng.Intn(6)
	if segs > n {
		segs = n
	}
	// Breakpoint positions and values.
	xs := make([]int, segs+1)
	ys := make([]float64, segs+1)
	xs[0], xs[segs] = 0, n-1
	for k := 1; k < segs; k++ {
		xs[k] = k * (n - 1) / segs
		if span := (n - 1) / (2 * segs); span > 0 {
			xs[k] += rng.Intn(2*span+1) - span
		}
	}
	sortInts(xs)
	for k := range ys {
		ys[k] = lo + rng.Float64()*(hi-lo)
	}
	// Each segment bows slightly (real trends are rarely perfectly
	// straight): the interior of a long phase then deviates from its
	// chord by a bounded relative amount, which is what makes wider
	// acceptable ranges accept more elements (Fig. 7a's AR gradient).
	bows := make([]float64, segs)
	for k := range bows {
		bows[k] = (rng.Float64()*2 - 1) * 0.35
	}
	amp := (hi - lo) / 2
	seg := 0
	for i := 0; i < n; i++ {
		for seg+1 < len(xs) && i > xs[seg+1] {
			seg++
		}
		x0, x1 := xs[seg], xs[seg+1]
		t := 0.0
		if x1 > x0 {
			t = float64(i-x0) / float64(x1-x0)
		}
		v := ys[seg] + (ys[seg+1]-ys[seg])*t
		v += (ys[seg+1] - ys[seg]) * bows[seg] * 4 * t * (1 - t)
		v += amp * noise * (rng.Float64()*2 - 1)
		// Occasional outliers (§2: "sometimes, a few outliers irritate
		// the trend-based prediction"): spikes whose downstream effect
		// lands between the narrow and wide acceptable ranges.
		if rng.Float64() < 0.04 {
			v += amp * (0.3 + 0.9*rng.Float64()) * sign(rng)
		}
		out[i] = v
	}
	return out
}

func sign(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// clusteredFloats draws samples concentrated around a fixed set of
// domain cluster centers (e.g. option strikes at round numbers) with
// small jitter. The concentration is what lets a quantized lookup
// table generalize to unseen inputs drawn from the same market
// structure, and what makes uniform min/max quantization wasteful
// compared to histogram quantization (§4.2).
func clusteredFloats(rng *rand.Rand, n int, centers []float64, jitter float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		c := centers[rng.Intn(len(centers))]
		out[i] = c * (1 + jitter*(rng.Float64()*2-1))
	}
	return out
}

// smoothInts synthesizes a smooth integer signal in [lo, hi].
func smoothInts(rng *rand.Rand, n int, lo, hi int64, noise float64) []int64 {
	fs := smoothFloats(rng, n, float64(lo), float64(hi), noise)
	out := make([]int64, n)
	for i, v := range fs {
		out[i] = int64(math.Round(v))
	}
	return out
}

// uniformFloats draws independent uniform samples (blackscholes'
// option parameters have no spatial trend, which is exactly why its
// DI-only skip rate is low and memoization matters).
func uniformFloats(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + rng.Float64()*(hi-lo)
	}
	return out
}
