package campaign

import (
	"rskip/internal/fault"
	"rskip/internal/result"
)

// Result is the JSON form of one campaign's outcome: rskipfi -json
// prints a list of them, and rskipd serves one in a job's status,
// stream and persisted outcome (partial for a cancelled job).
type Result struct {
	Bench        string `json:"bench,omitempty"`
	Scheme       string `json:"scheme"`
	N            int    `json:"n"`
	Requested    int    `json:"requested"`
	EarlyStopped bool   `json:"early_stopped,omitempty"`
	FaultModel   string `json:"fault_model,omitempty"`
	Exhaustive   bool   `json:"exhaustive,omitempty"`
	// Incremental marks a compositional per-region analysis; Regions
	// counts its campaign units and CacheHits/CacheMisses its result-
	// cache traffic (a fully warm re-run hits every region).
	Incremental bool `json:"incremental,omitempty"`
	Regions     int  `json:"regions,omitempty"`
	CacheHits   int  `json:"cache_hits,omitempty"`
	CacheMisses int  `json:"cache_misses,omitempty"`
	// Strata is the per-instruction-class breakdown of a stratified
	// campaign.
	Strata       []Stratum                 `json:"strata,omitempty"`
	Counts       map[string]int            `json:"counts"`
	Rates        map[string]float64        `json:"rates,omitempty"`
	CI95         map[string][2]float64     `json:"ci95,omitempty"`
	Protection   float64                   `json:"protection_rate"`
	ProtectionCI [2]float64                `json:"protection_ci95"`
	Fired        int                       `json:"fired"`
	FalseNeg     int                       `json:"false_neg"`
	FalseNegRate float64                   `json:"false_neg_rate"`
	Recovered    int                       `json:"recovered"`
	Errors       map[string]map[string]int `json:"errors,omitempty"`
	// Metrics holds the pipeline counters that moved during this
	// campaign (after-minus-before snapshot deltas).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Stratum is one instruction-class stratum of a stratified campaign.
type Stratum struct {
	Class     string  `json:"class"`
	Weight    float64 `json:"weight"`
	N         int     `json:"n"`
	Protected int     `json:"protected"`
}

// Result renders r, labelled with the scheme name the caller shows.
func (s *Spec) Result(label string, r fault.Result) *Result {
	j := &Result{
		Bench: s.Bench, Scheme: label, FaultModel: s.FaultModel,
		N: r.N, Requested: r.Requested, EarlyStopped: r.EarlyStopped, Exhaustive: r.Exhaustive,
		Counts:     map[string]int{},
		Protection: r.ProtectionRate(),
		Fired:      r.Fired, FalseNeg: r.FalseNeg, Recovered: r.Recovered,
	}
	plo, phi := r.ProtectionCI()
	j.ProtectionCI = [2]float64{plo, phi}
	for c := fault.Correct; c < fault.NumClasses; c++ {
		j.Counts[c.String()] = r.Counts[c]
	}
	for cls, byMsg := range r.Errors {
		if j.Errors == nil {
			j.Errors = map[string]map[string]int{}
		}
		j.Errors[cls.String()] = byMsg
	}
	for _, st := range r.Strata {
		j.Strata = append(j.Strata, Stratum{
			Class: st.Class.String(), Weight: st.Weight,
			N: st.N, Protected: st.Protected,
		})
	}
	j.Derive()
	return j
}

// IncrementalResult renders a compositional analysis: pooled counts
// from the composed result, the weighted program-level protection
// (pooling would weight regions by replica count), and the cache
// traffic that proves (or disproves) incrementality.
func (s *Spec) IncrementalResult(label string, rep *result.Report) *Result {
	j := s.Result(label, rep.Composed)
	j.Protection = rep.Protection
	j.ProtectionCI = rep.ProtectionCI
	j.Incremental = true
	j.Regions = len(rep.Regions)
	j.CacheHits, j.CacheMisses = rep.CacheHits, rep.CacheMisses
	return j
}

// Derive fills the per-class rates and intervals and the false-negative
// rate from the counts, as fault.Result computes them. A result read
// back from a file written before those keys existed gets them here.
func (j *Result) Derive() {
	r := fault.Result{N: j.N, FalseNeg: j.FalseNeg}
	j.Rates, j.CI95 = map[string]float64{}, map[string][2]float64{}
	for c := fault.Correct; c < fault.NumClasses; c++ {
		r.Counts[c] = j.Counts[c.String()]
		j.Rates[c.String()] = r.Rate(c)
		lo, hi := r.CI(c)
		j.CI95[c.String()] = [2]float64{lo, hi}
	}
	j.FalseNegRate = r.FalseNegRate()
}
