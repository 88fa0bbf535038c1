package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Name   string
	Result *metrics.WorkloadResult
}

// Moldable runs the paper's future-work extension (§X): flexible jobs
// additionally submitted with a node *range* instead of a fixed size, so
// the scheduler molds the start size. Compared against plain flexible
// and fixed runs of the same workload.
func Moldable(jobs int, seed int64) []AblationRow {
	specs := workload.Generate(workload.Realistic(jobs, seed))
	fixed := realisticConfig()
	flex := realisticConfig()
	mold := realisticConfig()
	mold.MoldableSubmissions = true
	return []AblationRow{
		{Name: "fixed", Result: core.RunWorkload(fixed, workload.SetFlexible(specs, false))},
		{Name: "flexible", Result: core.RunWorkload(flex, workload.SetFlexible(specs, true))},
		{Name: "flexible+moldable", Result: core.RunWorkload(mold, workload.SetFlexible(specs, true))},
	}
}

// ResizeFactor sweeps the reconfiguration factor (the paper fixes 2 for
// every job, §VII-C) over a preliminary workload.
func ResizeFactor(jobs int, factors []int, seed int64) []AblationRow {
	specs := workload.Generate(workload.Preliminary(jobs, 1, seed))
	var out []AblationRow
	for _, f := range factors {
		cfg := preliminaryConfig()
		cfg.FactorOverride = f
		out = append(out, AblationRow{
			Name:   fmt.Sprintf("factor %d", f),
			Result: core.RunWorkload(cfg, specs),
		})
	}
	return out
}

// PolicyModes compares full Algorithm 1 against its preferred-only
// ablation (wide optimization disabled). FS jobs give no preferred
// size, so wide optimization is the only branch that can act on them —
// the ablation shows the whole preliminary-study gain comes from it.
func PolicyModes(jobs int, seed int64) []AblationRow {
	specs := workload.Generate(workload.Preliminary(jobs, 1, seed))
	full := preliminaryConfig()
	pref := preliminaryConfig()
	pref.PreferredOnlyPolicy = true
	return []AblationRow{
		{Name: "algorithm1-full", Result: core.RunWorkload(full, specs)},
		{Name: "preferred-only", Result: core.RunWorkload(pref, specs)},
	}
}

// CRTransfer compares the DMR in-memory redistribution against
// checkpoint/restart-style reconfiguration at workload scale: the same
// policy and protocols, but resize data goes through the parallel
// filesystem. This extends Figure 1's per-resize comparison to the
// throughput setting of §IX.
func CRTransfer(jobs int, seed int64) []AblationRow {
	specs := workload.Generate(workload.Realistic(jobs, seed))
	dmr := realisticConfig()
	cr := realisticConfig()
	cr.CRTransfer = true
	return []AblationRow{
		{Name: "fixed", Result: core.RunWorkload(realisticConfig(), workload.SetFlexible(specs, false))},
		{Name: "flexible-dmr", Result: core.RunWorkload(dmr, specs)},
		{Name: "flexible-cr", Result: core.RunWorkload(cr, specs)},
	}
}

// ablationTable is one ablation sweep.
func ablationTable(title string, rows []AblationRow) *Table {
	t := &Table{Title: title, Cols: []Col{
		{"config", -22}, {"makespan(s)", 12}, {"avgwait(s)", 12}, {"util%", 10}, {"resizes", 10},
	}}
	for _, r := range rows {
		t.Row(r.Name, num(r.Result.Makespan.Seconds(), 0), num(r.Result.AvgWait.Seconds(), 0),
			num(r.Result.UtilRate, 2), fmt.Sprint(r.Result.Resizes))
	}
	return t
}
