package result

import (
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/machine"
)

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
	layouts := trace.ByOwner()
	out := map[int][]machine.FaultPlan{}
	for _, pl := range plans {
		for i := range layouts {
			if l := &layouts[i]; l.Contains(pl.Target) {
				out[l.Key] = append(out[l.Key], pl)
				break
			}
		}
	}
	return out
}
