package result

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/machine"
	"rskip/internal/obs"
)

// reportFigures strips a Report to the fields a second analysis must
// reproduce bit-for-bit: everything except the cache-traffic
// counters.
type reportFigures struct {
	Composed     fault.Result
	Protection   float64
	ProtectionCI [2]float64
	Regions      []RegionReport
	Budget       uint64
}

func figures(rep *Report) reportFigures {
	regions := make([]RegionReport, len(rep.Regions))
	copy(regions, rep.Regions)
	for i := range regions {
		regions[i].Cached = false // cache traffic is not a figure
	}
	return reportFigures{
		Composed: rep.Composed, Protection: rep.Protection,
		ProtectionCI: rep.ProtectionCI, Regions: regions, Budget: rep.Budget,
	}
}

// A cold analysis misses every region; an immediate warm re-analysis
// hits every region and reproduces the figures bit-for-bit.
func TestAnalyzeColdThenWarm(t *testing.T) {
	_, p, inst := sharedSub(t)
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Cache: cache, PerRegionN: 30, Seed: 3, InstKey: "test0"}

	cold, err := Analyze(context.Background(), p, core.SWIFT, inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Regions) < 2 {
		t.Fatalf("substrate kernel decomposed into %d regions, want >= 2", len(cold.Regions))
	}
	if cold.CacheHits != 0 || cold.CacheMisses != len(cold.Regions) {
		t.Errorf("cold analysis: %d hits / %d misses, want 0 / %d",
			cold.CacheHits, cold.CacheMisses, len(cold.Regions))
	}
	for _, r := range cold.Regions {
		if r.Cached {
			t.Errorf("cold analysis marked region %s cached", r.Func)
		}
	}
	if cold.Composed.N != len(cold.Regions)*opts.PerRegionN {
		t.Errorf("composed N = %d, want %d regions x %d replicas",
			cold.Composed.N, len(cold.Regions), opts.PerRegionN)
	}
	if lo, hi := cold.ProtectionCI[0], cold.ProtectionCI[1]; cold.Protection < lo || cold.Protection > hi {
		t.Errorf("protection %.2f outside its own CI [%.2f, %.2f]", cold.Protection, lo, hi)
	}
	var wsum float64
	for _, r := range cold.Regions {
		wsum += r.Weight
	}
	if wsum < 0.999 || wsum > 1.001 {
		t.Errorf("region weights sum to %v, want 1", wsum)
	}

	warm, err := Analyze(context.Background(), p, core.SWIFT, inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != len(cold.Regions) || warm.CacheMisses != 0 {
		t.Errorf("warm analysis: %d hits / %d misses, want %d / 0",
			warm.CacheHits, warm.CacheMisses, len(cold.Regions))
	}
	if !reflect.DeepEqual(figures(cold), figures(warm)) {
		t.Errorf("warm figures diverge from cold:\n  cold %+v\n  warm %+v", figures(cold), figures(warm))
	}
	if cache.Hits() != uint64(warm.CacheHits) || cache.Misses() != uint64(cold.CacheMisses) {
		t.Errorf("cache counters (%d hits, %d misses) disagree with reports", cache.Hits(), cache.Misses())
	}
}

// The tentpole acceptance criterion: after editing ONE stage
// function, a warm analysis re-runs only the edited region (cache-hit
// counters prove it) and still reports program-level figures
// bit-identical to a cold, fresh-cache analysis of the edited
// program.
func TestAnalyzeIncrementalAfterOneFunctionEdit(t *testing.T) {
	ks, p, inst := sharedSub(t)
	for _, s := range []core.Scheme{core.SWIFT, core.RSkip} {
		t.Run(s.String(), func(t *testing.T) {
			dir := t.TempDir()
			cache, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Cache: cache, PerRegionN: 30, Seed: 9, InstKey: "test0"}

			base, err := Analyze(context.Background(), p, s, inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			nRegions := len(base.Regions)

			// Edit one stage: change its folded constant. The program
			// text, lowered code and trained profile of that stage
			// change; every other stage is untouched.
			edited := ks
			edited.stages = append([]stageSpec(nil), ks.stages...)
			edited.stages[1].c++
			// Same benchmark name: the edit models a source change to
			// the same program, not a different benchmark.
			p2, inst2 := buildKernel(t, edited, "diffsub-shared")

			warm, err := Analyze(context.Background(), p2, s, inst2, opts)
			if err != nil {
				t.Fatal(err)
			}
			if warm.CacheMisses != 1 || warm.CacheHits != nRegions-1 {
				t.Fatalf("incremental analysis: %d hits / %d misses, want %d / 1",
					warm.CacheHits, warm.CacheMisses, nRegions-1)
			}
			for i, r := range warm.Regions {
				wantCached := r.Func != "stage1"
				if r.Cached != wantCached {
					t.Errorf("region %d (%s): cached = %v, want %v", i, r.Func, r.Cached, wantCached)
				}
				// Fingerprint stability is the key mechanism: only the
				// edited stage's fingerprint moved.
				if r.Func != "stage1" && r.Fingerprint != base.Regions[i].Fingerprint {
					t.Errorf("region %s: fingerprint changed without an edit", r.Func)
				}
				if r.Func == "stage1" && r.Fingerprint == base.Regions[i].Fingerprint {
					t.Errorf("region stage1: fingerprint unchanged by the edit")
				}
			}

			// The composed figures must equal a cold analysis of the
			// edited program — the cached unedited-region entries are
			// exact, not approximations (disjoint stages; see DESIGN.md
			// on the independence assumption).
			coldCache, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			coldOpts := opts
			coldOpts.Cache = coldCache
			cold, err := Analyze(context.Background(), p2, s, inst2, coldOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(figures(warm), figures(cold)) {
				t.Errorf("incremental figures diverge from cold re-analysis:\n  warm %+v\n  cold %+v",
					figures(warm), figures(cold))
			}
		})
	}
}

// Without a cache, Analyze still composes (every region runs live).
func TestAnalyzeNilCache(t *testing.T) {
	_, p, inst := sharedSub(t)
	rep, err := Analyze(context.Background(), p, core.Unsafe, inst, Options{PerRegionN: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 0 || rep.CacheMisses != len(rep.Regions) {
		t.Errorf("nil-cache analysis: %d hits / %d misses", rep.CacheHits, rep.CacheMisses)
	}
	if rep.Composed.N == 0 {
		t.Error("nil-cache analysis produced no runs")
	}
}

// Changing the scheme, the fault mix, the skip width, the seed or the
// replica count must change every region's cache key: none of the
// first analysis's entries may be served for the second.
func TestAnalyzeKeySensitivity(t *testing.T) {
	_, p, inst := sharedSub(t)
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Cache: cache, PerRegionN: 20, Seed: 3, InstKey: "test0"}
	if _, err := Analyze(context.Background(), p, core.SWIFT, inst, base); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		scheme core.Scheme
		mut    func(*Options)
	}{
		{"scheme", core.SWIFTR, func(o *Options) {}},
		{"mix", core.SWIFT, func(o *Options) { o.Mix = fault.Mix{Skip: 1} }},
		{"skip width", core.SWIFT, func(o *Options) { o.Mix = fault.Mix{Skip: 1}; o.SkipWidth = 3 }},
		{"seed", core.SWIFT, func(o *Options) { o.Seed = 4 }},
		{"replica count", core.SWIFT, func(o *Options) { o.PerRegionN = 21 }},
		{"instance", core.SWIFT, func(o *Options) { o.InstKey = "test1" }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			opts := base
			tt.mut(&opts)
			rep, err := Analyze(context.Background(), p, tt.scheme, inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.CacheHits != 0 {
				t.Errorf("changed %s but %d regions still hit the old entries", tt.name, rep.CacheHits)
			}
		})
	}

	// The unmutated options still hit everything, proving the misses
	// above came from the keys and not cache misbehaviour.
	rep, err := Analyze(context.Background(), p, core.SWIFT, inst, base)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheMisses != 0 {
		t.Errorf("baseline re-analysis missed %d regions", rep.CacheMisses)
	}
}

// Analyze surfaces a typed conflict when its per-region config is
// invalid (regression: the error must carry fault.ConfigConflictError
// through, not wrap it into an opaque string).
func TestAnalyzePropagatesConfigErrors(t *testing.T) {
	_, p, inst := sharedSub(t)
	_, err := Analyze(context.Background(), p, core.SWIFT, inst, Options{
		PerRegionN: 10, Mix: fault.Mix{RegFile: -1},
	})
	if err == nil {
		t.Fatal("negative mix weight accepted")
	}
	if want := "Mix.RegFile"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

// The analysis profile gets the campaign's panic containment: a clean
// run that crashes the interpreter is an error, not a dead process.
func TestAnalyzeContainsProfilePanic(t *testing.T) {
	_, p, inst := sharedSub(t)
	inst.Setup = func(*machine.Memory) []uint64 { panic("broken instance") }
	_, err := Analyze(context.Background(), p, core.SWIFT, inst, Options{PerRegionN: 5})
	if err == nil || !strings.Contains(err.Error(), "panicked: broken instance") {
		t.Fatalf("analysis of a panicking clean run returned %v, want the contained panic", err)
	}
}

// Per-region seeds differ across regions (a shared stream would
// correlate the samples) yet are derived, not stored: the same
// (Seed, fingerprint) always reproduces them.
func TestRegionSeedsDistinctAndStable(t *testing.T) {
	_, p, inst := sharedSub(t)
	trace := profileOf(t, p, core.Unsafe, inst).Trace
	layouts := trace.ByOwner()
	seen := map[int64]string{}
	for _, lay := range layouts {
		fp := regionFP(p, core.Unsafe, lay.Key)
		seed := regionSeed(11, fp)
		if prev, dup := seen[seed]; dup {
			t.Errorf("regions %s and %s share sampling seed %d", prev, fp, seed)
		}
		seen[seed] = fp
		if regionSeed(11, fp) != seed {
			t.Errorf("region seed for %s not stable", fp)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("substrate kernel yielded %d regions", len(seen))
	}
}

// Budget buckets are stable under small instruction-count drift and
// included in every key.
func TestBudgetBucketing(t *testing.T) {
	cases := []struct {
		instrs uint64
		want   uint64
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, tt := range cases {
		if got := budgetFor(1, tt.instrs); got != tt.want {
			t.Errorf("budgetFor(1, %d) = %d, want %d", tt.instrs, got, tt.want)
		}
	}
	if got := budgetFor(50, 1000); got != 50*1024 {
		t.Errorf("budgetFor(50, 1000) = %d, want %d", got, 50*1024)
	}
	_, p, _ := sharedSub(t)
	fp := "x"
	k1 := specKey(p, core.SWIFT, Options{}, 0, fp, 10, 1024)
	k2 := specKey(p, core.SWIFT, Options{}, 0, fp, 10, 2048)
	if k1 == k2 {
		t.Error("budget not part of the cache key")
	}
}

// One analysis makes one clean run: the traced profile that splits the
// program into regions also serves every region's campaign. A cold
// analysis of K regions therefore executes 1 + K·PerRegionN machine
// runs, and a warm one, served wholly from the cache, the profile
// alone.
func TestAnalyzeMakesOneCleanRun(t *testing.T) {
	// A program of its own: Observe must not reach the shared kernel.
	p, inst := buildKernel(t, genKernel(rand.New(rand.NewSource(43))), "diffsub-runs")
	o := obs.New()
	p.Observe(o)
	defer p.Observe(nil)
	runs := func() float64 { return o.Metrics.Snapshot()["machine_runs_total"] }
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Cache: cache, PerRegionN: 15, Seed: 5, InstKey: "test0"}

	before := runs()
	cold, err := Analyze(context.Background(), p, core.SWIFT, inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := len(cold.Regions)
	if k < 2 || cold.CacheMisses != k {
		t.Fatalf("cold analysis: %d regions, %d misses; want >= 2 regions, all missed", k, cold.CacheMisses)
	}
	if got, want := runs()-before, float64(1+k*opts.PerRegionN); got != want {
		t.Errorf("cold analysis of %d regions made %.0f machine runs, want %.0f (one profile plus the replicas)", k, got, want)
	}

	before = runs()
	warm, err := Analyze(context.Background(), p, core.SWIFT, inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != k {
		t.Fatalf("warm analysis hit %d of %d regions", warm.CacheHits, k)
	}
	if got := runs() - before; got != 1 {
		t.Errorf("warm analysis made %.0f machine runs, want 1 (the profile)", got)
	}
}
