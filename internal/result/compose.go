package result

import (
	"rskip/internal/core"
	"rskip/internal/fault"
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
