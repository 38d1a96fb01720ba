package fault

import (
	"sort"

	"rskip/internal/machine"
)

// Stratified sampling (Config.Stratify) draws fault targets per
// instruction class instead of uniformly over the whole region. The
// fault-free profile run records a region trace — the exact layout of
// the in-region dynamic instruction stream — from which each class's
// population (machine.Population: its set of global in-region
// indexes) is known as a list of contiguous intervals. Replicas are
// allocated to classes by largest-remainder apportionment of their
// population shares, and each class draws its plans as a view of the
// class would (DrawPlans over the class, then pickWithin) from its own
// seeded substream, so the plan list is a pure function of (seed, layout) —
// deterministic, checkpointable by index, and independent of worker
// scheduling like every other campaign.

// allocate apportions n replicas across the class populations by
// largest-remainder on population shares. Empty populations get zero;
// the remainder goes to the largest fractional parts, ties broken by
// class order, so the allocation is deterministic.
func allocate(byClass []machine.Population, total uint64, n int) [machine.NumOpClasses]int {
	var out [machine.NumOpClasses]int
	if total == 0 || n <= 0 {
		return out
	}
	type frac struct {
		class int
		rem   float64
	}
	var fracs []frac
	used := 0
	for _, pop := range byClass {
		if pop.Count == 0 {
			continue
		}
		c := pop.Key
		exact := float64(n) * float64(pop.Count) / float64(total)
		out[c] = int(exact)
		used += out[c]
		fracs = append(fracs, frac{class: c, rem: exact - float64(out[c])})
	}
	sort.SliceStable(fracs, func(i, j int) bool { return fracs[i].rem > fracs[j].rem })
	for i := 0; used < n && len(fracs) > 0; i = (i + 1) % len(fracs) {
		out[fracs[i].class]++
		used++
	}
	return out
}

// stratumSeed derives the per-class RNG substream seed. Distinct
// classes must draw independent streams from one campaign seed; the
// odd multiplier keeps the substreams far apart for adjacent seeds.
func stratumSeed(seed int64, class machine.OpClass) int64 {
	return seed ^ (int64(class)+1)*0x5851F42D4C957F2D
}

// stratifiedPlans builds the class-major plan list of a stratified
// campaign from the profiled region layout. It returns the plans, the
// per-plan stratum index (into strata), and the stratum skeletons
// (class + weight; counts are filled at aggregation).
func stratifiedPlans(cfg Config, trace *machine.RegionTrace) (plans []machine.FaultPlan, strataOf []int, strata []StratumResult) {
	byClass, total := trace.ByClass(), trace.Total()
	alloc := allocate(byClass, total, cfg.N)
	plans = make([]machine.FaultPlan, 0, cfg.N)
	strataOf = make([]int, 0, cfg.N)
	for k := range byClass {
		pop := &byClass[k]
		class := machine.OpClass(pop.Key)
		si := len(strata)
		strata = append(strata, StratumResult{
			Class:  class,
			Weight: float64(pop.Count) / float64(total),
		})
		drawn := pickWithin(pop, DrawPlans(stratumSeed(cfg.Seed, class), alloc[class], cfg, pop.Count))
		plans = append(plans, drawn...)
		for range drawn {
			strataOf = append(strataOf, si)
		}
	}
	return plans, strataOf, strata
}
