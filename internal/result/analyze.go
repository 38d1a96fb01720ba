package result

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
	"strings"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/machine"
	"rskip/internal/obs"
	"rskip/internal/stats"
)

// Options parameterizes one compositional analysis.
type Options struct {
	// Cache serves per-region campaign results content-addressed; nil
	// runs every region live (composition still applies, nothing
	// persists).
	Cache *Cache
	// PerRegionN is the number of replicas injected per region
	// (default 200). It is fixed per region — not apportioned from a
	// program-wide total — so an edit that changes one region's size
	// never perturbs another region's sampling plan or cache key.
	PerRegionN int
	// Seed drives per-region sampling. Each region draws from a
	// substream keyed by (Seed, region fingerprint), so plans are
	// edit-stable: an unedited region redraws the identical plans
	// after any edit elsewhere.
	Seed int64
	// InstKey identifies the benchmark instance (input seed and
	// scale) in cache keys. Callers that cache must set it; the
	// instance object itself is opaque.
	InstKey string
	// Mix, SkipWidth, BitWidth select the fault model (defaults
	// mirror fault.Config).
	Mix       fault.Mix
	SkipWidth int
	BitWidth  int
	// Workers bounds each region campaign's parallelism.
	Workers int
}

// RegionReport is one region's campaign outcome within a Report.
type RegionReport struct {
	// Owner is the function index owning the region; Func its name.
	Owner int    `json:"owner"`
	Func  string `json:"func"`
	// Fingerprint is the region's content identity (the owning
	// function's call closure, plus its outlined recompute slices for
	// the RSkip scheme).
	Fingerprint string `json:"fingerprint"`
	// Population is the region's in-region dynamic instruction count;
	// Weight its share of the whole stream.
	Population uint64  `json:"population"`
	Weight     float64 `json:"weight"`
	// Cached reports the campaign was served from the result cache.
	Cached bool         `json:"cached"`
	Result fault.Result `json:"result"`
}

// Report is the composed program-level outcome of one analysis.
type Report struct {
	Scheme  core.Scheme
	Bench   string
	Regions []RegionReport
	// Composed pools every region's counts (partition-sum); its
	// pooled rates weight regions by replica count, not population —
	// use Protection/ProtectionCI for the population-weighted figures.
	Composed fault.Result
	// Protection is the weighted program-level protection rate (in
	// percent): each region's observed rate scaled by the region's
	// share of the in-region instruction stream, with the merged
	// stratified Wilson interval.
	Protection   float64
	ProtectionCI [2]float64
	// CacheHits/CacheMisses count per-region campaigns served from
	// the cache versus run live in this analysis.
	CacheHits   int
	CacheMisses int
	// Budget is the per-run instruction budget every region campaign
	// (cached or live) ran under.
	Budget uint64
}

// regionFP is the cache identity of one region's code under a scheme:
// the owning function's call closure, plus — for RSkip, whose regions
// execute outlined recompute slices the closure cannot see (they are
// invoked through runtime hooks, not calls) — the slices owned by the
// region's loops.
func regionFP(p *core.Program, s core.Scheme, owner int) string {
	code := p.Code(s)
	parts := []string{code.RegionFingerprint(owner)}
	if s == core.RSkip {
		var slices []int
		for rf, o := range p.RegionOwner {
			if o == owner {
				slices = append(slices, rf)
			}
		}
		sort.Ints(slices)
		for _, rf := range slices {
			parts = append(parts, code.RegionFingerprint(rf))
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(parts, "+")))
	return fmt.Sprintf("%x", sum)
}

// regionTrainedHash fingerprints the slice of the trained profile a
// region's campaign actually consumes: the QoS models and memo tables
// of the loops living in the owner function. Hashing per region (not
// the whole profile) is what keeps unedited regions cached after an
// edit — retraining the edited stage regenerates every loop's
// entries, but the unedited stages' entries are value-identical and
// hash the same. Only RSkip feeds the profile into runs; other
// schemes hash empty.
func regionTrainedHash(p *core.Program, s core.Scheme, owner int) string {
	if s != core.RSkip || p.Trained == nil {
		return ""
	}
	mod := p.Module(s)
	type loopSlice struct {
		ID   int         `json:"id"`
		QoS  interface{} `json:"qos,omitempty"`
		Memo interface{} `json:"memo,omitempty"`
	}
	var slices []loopSlice
	for i := range mod.Loops {
		li := &mod.Loops[i]
		if li.Func != owner {
			continue
		}
		slices = append(slices, loopSlice{
			ID: li.ID, QoS: p.Trained.QoS[li.ID], Memo: p.Trained.Memo[li.ID],
		})
	}
	sort.Slice(slices, func(i, j int) bool { return slices[i].ID < slices[j].ID })
	data, err := json.Marshal(slices)
	if err != nil {
		return fmt.Sprintf("unhashable:%v", err)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum)
}

// specKey assembles the full cache key of one region campaign. The
// golden output hash is deliberately absent: including it would
// invalidate every region on any edit, defeating incrementality. Its
// place is taken by the region fingerprint plus the documented
// independence assumption (see DESIGN.md): composition is sound when
// regions neither share data nor feed each other, so a fault confined
// to one region perturbs only that region's slice of the output.
func specKey(p *core.Program, s core.Scheme, opts Options, owner int, fp string, population uint64, budget uint64) string {
	return fmt.Sprintf(
		"v%d|region=%s|pop=%d|pipe=%s|cfg=%s|trained=%s|bench=%s|inst=%s|scheme=%s|mix=%g/%g/%g/%g/%g/%g|sw=%d|bw=%d|bud=%d|seed=%d|n=%d",
		entryVersion, fp, population,
		core.PipelineSig(s, p.Cfg), p.Cfg.Key(), regionTrainedHash(p, s, owner),
		p.Bench.Name, opts.InstKey, s,
		opts.Mix.RegFile, opts.Mix.Result, opts.Mix.Source, opts.Mix.Opcode, opts.Mix.Skip, opts.Mix.MultiBit,
		opts.SkipWidth, opts.BitWidth, budget, opts.Seed, opts.PerRegionN)
}

// regionSeed derives the per-region sampling substream. Keying by the
// region fingerprint (not the owner index or layout position) is what
// makes plans edit-stable: the substream survives edits elsewhere,
// and an edit to the region itself moves the seed along with the key.
func regionSeed(seed int64, fp string) int64 {
	h := fnv.New64a()
	h.Write([]byte(fp))
	return seed ^ int64(h.Sum64())
}

// budgetFor buckets the fault-free instruction count to the next
// power of two and applies the hang factor (fault.HangFactor in
// Analyze). Small
// edits thus leave the budget — and with it every unedited region's
// outcome — untouched; when an edit does cross a bucket boundary,
// every region key misses and the whole campaign re-runs under the
// new budget.
func budgetFor(hangFactor, faultFreeInstrs uint64) uint64 {
	if faultFreeInstrs == 0 {
		return hangFactor
	}
	bucket := uint64(1) << bits.Len64(faultFreeInstrs-1)
	return hangFactor * bucket
}

// Analyze runs (or serves from cache) one campaign per candidate-loop
// region and composes the program-level figures. One traced fault-free
// profile gives the region decomposition, each region's population and
// the budget, and every region's campaign is an ordinary campaign on
// the profile's view of that region (Profile.Within), seeded by the
// region's fingerprint, so after a source edit only regions whose fingerprint changed
// miss the cache; every other region replays its cached counts and the
// composed rates are bit-identical to a cold full analysis of the
// edited program.
func Analyze(ctx context.Context, p *core.Program, s core.Scheme, inst bench.Instance, opts Options) (*Report, error) {
	if opts.PerRegionN <= 0 {
		opts.PerRegionN = 200
	}
	if opts.Mix == (fault.Mix{}) {
		opts.Mix = fault.DefaultMix
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.Start(ctx, "result/analyze")
	sp.SetAttr("scheme", s.String())
	sp.SetAttr("bench", p.Bench.Name)
	defer sp.End()

	prof, err := fault.NewProfile(ctx, p, s, inst, &machine.RegionTrace{})
	if err != nil {
		return nil, err
	}
	budget := budgetFor(fault.HangFactor, prof.Result.Instrs)
	rep := &Report{Scheme: s, Bench: p.Bench.Name, Budget: budget}
	mod := p.Module(s)

	fcfg := fault.Config{
		Workers:   opts.Workers,
		Mix:       opts.Mix,
		SkipWidth: opts.SkipWidth,
		BitWidth:  opts.BitWidth,
		Budget:    budget,
	}
	for _, lay := range prof.Trace.ByOwner() {
		fp := regionFP(p, s, lay.Key)
		key := specKey(p, s, opts, lay.Key, fp, lay.Count, budget)
		res, cached, err := opts.Cache.GetOrRun(key, func() (fault.Result, error) {
			cfg := fcfg
			cfg.N, cfg.Seed = opts.PerRegionN, regionSeed(opts.Seed, fp)
			return fault.CampaignOn(ctx, prof.Within(lay), cfg)
		})
		if err != nil {
			return nil, err
		}
		name := ""
		if lay.Key >= 0 && lay.Key < len(mod.Funcs) {
			name = mod.Funcs[lay.Key].Name
		}
		if cached {
			rep.CacheHits++
		} else {
			rep.CacheMisses++
		}
		rep.Regions = append(rep.Regions, RegionReport{
			Owner: lay.Key, Func: name, Fingerprint: fp,
			Population: lay.Count,
			Weight:     float64(lay.Count) / float64(prof.Trace.Total()),
			Cached:     cached, Result: res,
		})
	}

	rep.Composed = ComposeCounts(s, regionResults(rep.Regions))
	rep.Protection, rep.ProtectionCI = composeProtection(rep.Regions)
	sp.SetAttr("regions", len(rep.Regions))
	sp.SetAttr("cache_hits", rep.CacheHits)
	return rep, nil
}

func regionResults(regions []RegionReport) []fault.Result {
	out := make([]fault.Result, len(regions))
	for i := range regions {
		out[i] = regions[i].Result
	}
	return out
}

// composeProtection merges per-region protection outcomes with region
// populations as stratum weights.
func composeProtection(regions []RegionReport) (float64, [2]float64) {
	strata := make([]stats.Stratum, len(regions))
	for i, r := range regions {
		strata[i] = stats.Stratum{
			W: r.Weight,
			K: r.Result.Counts[fault.Correct] + r.Result.Counts[fault.Detected],
			N: r.Result.N,
		}
	}
	p, lo, hi := stats.StratifiedWilson(strata, stats.Z95)
	return 100 * p, [2]float64{100 * lo, 100 * hi}
}
