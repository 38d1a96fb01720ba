package bench_test

import (
	"testing"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
)

// TestCompiledBackendFaster is the CI performance bar for the
// closure-threaded backend: over interleaved min-of-N kernel runs in
// one process, compiled must beat the seed reference interpreter by a
// coarse margin. The bar is deliberately loose — the measured gap is
// ~2.4-3× on sgemm but shared CI machines are noisy, so the test takes
// the minimum of several interleaved rounds (immune to machine-wide
// drift during the test) and only demands 1.8×. A regression that
// costs the compiled backend its lead fails; a few percent of erosion
// does not flake the build.
func TestCompiledBackendFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing bar skipped in -short")
	}
	bm, err := bench.ByName("sgemm")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(bm, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst := bm.Gen(bench.TestSeed(0), bench.ScaleFI)

	run := func(reference bool) time.Duration {
		start := time.Now()
		o := p.Run(core.Unsafe, inst, core.RunOpts{Reference: reference})
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		return time.Since(start)
	}
	// Warm both engines: the decoded and compiled code objects are
	// built lazily and cached on the Program.
	run(true)
	run(false)

	const rounds = 7
	minRef, minComp := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		if d := run(true); d < minRef {
			minRef = d
		}
		if d := run(false); d < minComp {
			minComp = d
		}
	}
	ratio := float64(minRef) / float64(minComp)
	t.Logf("sgemm min-of-%d: reference %v, compiled %v (%.2fx)", rounds, minRef, minComp, ratio)
	if ratio < 1.8 {
		t.Errorf("compiled backend is not meaningfully faster than reference: %.2fx (want >= 1.8x)", ratio)
	}
}
