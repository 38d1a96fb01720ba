package fault

import (
	"context"

	"rskip/internal/machine"
)

// RunPlans runs an explicit plan list against the whole profile prof
// through the one campaign loop, as the plans' own campaign. It is the
// differential oracle of view and partition tests: a RunRecord is a
// pure function of (profile, plan, budget), so any split of a plan list
// run part by part must sum to the whole.
func RunPlans(ctx context.Context, prof *Profile, cfg Config, plans []machine.FaultPlan) (Result, error) {
	cfg.N = len(plans)
	e, err := prepare(ctx, prof, cfg)
	if err != nil {
		return Result{}, err
	}
	e.plans = plans
	e.cfg.N = len(plans)
	e.records = make([]RunRecord, len(plans))
	e.key += "|explicit"
	return newExecutor(e).run(ctx)
}
