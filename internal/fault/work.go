package fault

import (
	"slices"
	"strings"

	"rskip/internal/core"
	"rskip/internal/machine"
)

// workRow is one work counter: what a campaign's replicas executed, or
// what their shortcuts spared them (machine.Work). runOne adds a row's
// value for every classified replica. Per campaign, the executed rows
// plus the three *_instrs_skipped rows sum to the replicas' share of
// machine_instrs_total.
type workRow struct {
	name, help string
	value      func(o *core.Outcome, cls Class) uint64
}

// workRows is the table of work counters. A row added here is
// registered, fed and kept out of rskipfi's summary line with no other
// change.
var workRows = append([]workRow{
	{"fault_prefix_instrs_skipped_total", "fault-free prefix instructions replicas resumed from snapshots instead of executing",
		func(o *core.Outcome, _ Class) uint64 { return o.Work.Resumed }},
	{"fault_converged_total", "replicas stopped early because their state rejoined the clean run's",
		func(o *core.Outcome, _ Class) uint64 { return count(o.Work.Converged > 0) }},
	{"fault_converged_instrs_skipped_total", "clean-run instructions converged replicas took from the clean run's end instead of executing",
		func(o *core.Outcome, _ Class) uint64 { return o.Work.Converged }},
	{"fault_converged_isolated_total", "converged replicas whose differing registers reached nothing but single vote operands (copy isolation)",
		func(o *core.Outcome, _ Class) uint64 { return count(o.Work.Isolated) }},
	{"fault_converged_dead_memory_total", "converged replicas whose memory still differed in words the clean run never reads again (dead memory)",
		func(o *core.Outcome, _ Class) uint64 { return count(o.Work.DeadWords > 0) }},
	{"fault_hang_proofs_total", "replicas that proved their runaway loop exhausts the budget and skipped to the iteration that does",
		func(o *core.Outcome, _ Class) uint64 { return count(o.Work.HangSkipped > 0) }},
	{"fault_hang_instrs_skipped_total", "runaway-loop instructions hang-proved replicas skipped instead of executing",
		func(o *core.Outcome, _ Class) uint64 { return o.Work.HangSkipped }},
	{"fault_hang_unproved_total", "Hang replicas that executed to the budget without proving their runaway loop",
		func(o *core.Outcome, cls Class) uint64 { return count(cls == Hang && o.Work.HangSkipped == 0) }},
}, append(executedRows(), unconvergedRows()...)...)

// executedRows holds one row per outcome class: the instructions its
// replicas executed.
func executedRows() (rows []workRow) {
	for c := Correct; c < NumClasses; c++ {
		rows = append(rows, workRow{"fault_executed_instrs_" + c.slug() + "_total",
			"instructions replicas classified " + c.String() + " executed, not resumed or skipped",
			func(o *core.Outcome, cls Class) uint64 { return count(cls == c) * o.Work.Executed(o.Result.Instrs) }})
	}
	return rows
}

// unconvergedRows holds one row per convergence reject reason: the
// replicas that neither converged nor proved a hang whose last check
// failed for it. Per campaign they sum to those replicas.
func unconvergedRows() (rows []workRow) {
	for r := machine.Reject(0); r < machine.NumRejects; r++ {
		rows = append(rows, workRow{"fault_unconverged_" + r.String() + "_total",
			"replicas that neither converged nor proved a hang, by why their last convergence check failed: " + r.String(),
			func(o *core.Outcome, _ Class) uint64 {
				return count(o.Work.Converged == 0 && o.Work.HangSkipped == 0 && o.Work.Reject == r)
			}})
	}
	return rows
}

func count(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// IsWorkCounter reports whether name is a work counter: one that
// follows how much work a campaign does, never what it computes.
func IsWorkCounter(name string) bool {
	return slices.ContainsFunc(workRows, func(r workRow) bool { return r.name == name })
}

// slug is the class's name in counter names: "Core dump" is core_dump.
func (c Class) slug() string {
	return strings.ReplaceAll(strings.ToLower(c.String()), " ", "_")
}
