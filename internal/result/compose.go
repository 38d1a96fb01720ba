package result

import (
	"sort"

	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/machine"
)

// ownerLayout is one region's population: the contiguous global
// in-region index ranges owned by one function, mirroring the fault
// package's per-class intervals but cut along the region (ownership)
// axis instead of the instruction-class axis.
type ownerLayout struct {
	owner  int
	count  uint64   // total population
	starts []uint64 // global start of each interval
	cum    []uint64 // population preceding each interval
}

// pick maps a region-local index (0 <= j < count) to the global
// in-region index of the j-th instruction of the region.
func (l *ownerLayout) pick(j uint64) uint64 {
	k := sort.Search(len(l.cum), func(i int) bool { return l.cum[i] > j }) - 1
	return l.starts[k] + (j - l.cum[k])
}

// locate reports whether global in-region index g falls in this
// region.
func (l *ownerLayout) locate(g uint64) bool {
	k := sort.Search(len(l.starts), func(i int) bool { return l.starts[i] > g }) - 1
	if k < 0 {
		return false
	}
	return g-l.starts[k] < widthOf(l, k)
}

// layoutOwners folds a region trace into per-owner populations,
// ordered by owner function index.
func layoutOwners(trace *machine.RegionTrace) []*ownerLayout {
	byOwner := map[int]*ownerLayout{}
	var owners []int
	var pos uint64
	for _, sp := range trace.Spans() {
		l := byOwner[sp.Owner]
		if l == nil {
			l = &ownerLayout{owner: sp.Owner}
			byOwner[sp.Owner] = l
			owners = append(owners, sp.Owner)
		}
		// Adjacent spans of one owner (differing only by class) merge
		// into one interval so the layout stays compact.
		if n := len(l.starts); n > 0 && l.starts[n-1]+widthOf(l, n-1) == pos {
			// extend the previous interval
			l.count += sp.N
		} else {
			l.cum = append(l.cum, l.count)
			l.starts = append(l.starts, pos)
			l.count += sp.N
		}
		pos += sp.N
	}
	sort.Ints(owners)
	out := make([]*ownerLayout, len(owners))
	for i, o := range owners {
		out[i] = byOwner[o]
	}
	return out
}

// widthOf is the population of interval k of l.
func widthOf(l *ownerLayout, k int) uint64 {
	if k+1 < len(l.cum) {
		return l.cum[k+1] - l.cum[k]
	}
	return l.count - l.cum[k]
}

// ComposeCounts pools per-region campaign results by the
// partition-sum identity: every monolithic-campaign replica lands in
// exactly one region, so summing the per-region counts reproduces the
// monolithic counts exactly. Rate fields on the composed result pool
// replicas (weighting regions by replica count); population-weighted
// figures come from the Report's stratified estimator.
func ComposeCounts(s core.Scheme, parts []fault.Result) fault.Result {
	out := fault.Result{Scheme: s}
	for _, r := range parts {
		out.N += r.N
		out.Requested += r.Requested
		for c := range r.Counts {
			out.Counts[c] += r.Counts[c]
		}
		out.Fired += r.Fired
		out.FalseNeg += r.FalseNeg
		out.Recovered += r.Recovered
		for class, byMsg := range r.Errors {
			if out.Errors == nil {
				out.Errors = map[fault.Class]map[string]int{}
			}
			if out.Errors[class] == nil {
				out.Errors[class] = map[string]int{}
			}
			for msg, n := range byMsg {
				out.Errors[class][msg] += n
			}
		}
	}
	return out
}

// Partition splits a monolithic campaign's plan list along the region
// decomposition of a trace: each plan goes to the region whose
// interval set contains its (global in-region) target. Plan order
// within each part preserves the monolithic order. This is the
// differential-test counterpart of Analyze's per-region drawing — a
// monolithic plan list, partitioned and re-run per region, must
// compose to counts bit-identical to the monolithic campaign.
func Partition(plans []machine.FaultPlan, trace *machine.RegionTrace) map[int][]machine.FaultPlan {
	layouts := layoutOwners(trace)
	out := map[int][]machine.FaultPlan{}
	for _, pl := range plans {
		for _, l := range layouts {
			if l.locate(pl.Target) {
				out[l.owner] = append(out[l.owner], pl)
				break
			}
		}
	}
	return out
}
