package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// PowerCapJobs is the workload size of the power-capping sweep.
const PowerCapJobs = 50

// PowerCapLevels are the facility power budgets swept by the powercap
// experiment, in watts. 0 is the uncapped baseline; the paper's 65-node
// machine peaks at about 21.5 kW fully loaded, so the levels cut
// progressively deeper into that envelope.
var PowerCapLevels = []float64{0, 16000, 12000, 9000}

// PowerCapRun is one workload execution under a cap.
type PowerCapRun struct {
	Res *metrics.WorkloadResult
	// PeakW is the highest sample of the power trace over the makespan;
	// under a cap it must never exceed it.
	PeakW float64
	// ThrottledS sums throttled_s over all accounting records: the total
	// job-seconds spent below P0.
	ThrottledS float64
}

// PowerCapRow compares rigid and malleable executions of the same seeded
// workload under one cap level.
type PowerCapRow struct {
	CapW      float64
	Rigid     PowerCapRun
	Malleable PowerCapRun
}

// powerCapRun executes one workload under a cap and collects the
// cap-specific measures from the accounting records and power trace.
func powerCapRun(capW float64, specs []workload.Spec) PowerCapRun {
	cfg := energyConfig(false)
	cfg.PowerCapW = capW
	sys := core.NewSystem(cfg)
	sys.SubmitAll(specs)
	res := sys.Run()
	run := PowerCapRun{Res: res, PeakW: res.Power.MaxPowerW(res.Makespan)}
	for _, rec := range sys.Ctl.Accounting() {
		run.ThrottledS += rec.ThrottledSec
	}
	return run
}

// PowerCap sweeps cap levels against makespan and total energy for rigid
// vs malleable executions of the same seeded realistic workload, with
// power accounting and idle sleep enabled throughout. caps==nil sweeps
// PowerCapLevels.
func PowerCap(jobs int, caps []float64, seed int64) []PowerCapRow {
	if caps == nil {
		caps = PowerCapLevels
	}
	specs := workload.Generate(workload.Realistic(jobs, seed))
	var out []PowerCapRow
	for _, capW := range caps {
		out = append(out, PowerCapRow{
			CapW:      capW,
			Rigid:     powerCapRun(capW, workload.SetFlexible(specs, false)),
			Malleable: powerCapRun(capW, workload.SetFlexible(specs, true)),
		})
	}
	return out
}

// powerCapTable is the sweep: per cap level, makespan, energy, observed
// peak draw and total throttled job-seconds for both regimes.
func powerCapTable(rows []PowerCapRow) *Table {
	t := &Table{Title: "Power capping: cap level vs makespan/energy, rigid vs malleable (same seeded workload)", Cols: []Col{
		{"cap(W)", 9}, {"rigidMk(s)", 11}, {"mallMk(s)", 11}, {"rigid(kJ)", 10}, {"mall(kJ)", 10},
		{"rigidPk(W)", 11}, {"mallPk(W)", 11}, {"rigThr(s)", 10}, {"malThr(s)", 10}, {"rigid(W)", 11}, {"mall(W)", 11},
	}}
	for _, r := range rows {
		cap := "none"
		if r.CapW > 0 {
			cap = num(r.CapW, 0)
		}
		t.Row(cap, num(r.Rigid.Res.Makespan.Seconds(), 0), num(r.Malleable.Res.Makespan.Seconds(), 0),
			num(r.Rigid.Res.EnergyJ/1e3, 0), num(r.Malleable.Res.EnergyJ/1e3, 0),
			num(r.Rigid.PeakW, 0), num(r.Malleable.PeakW, 0),
			num(r.Rigid.ThrottledS, 0), num(r.Malleable.ThrottledS, 0),
			num(r.Rigid.Res.AvgPowerW, 0), num(r.Malleable.Res.AvgPowerW, 0))
	}
	return t
}

// powerCapReport is the sweep's table with each level's power traces
// (CSV, and one SVG with the cap drawn as a reference line).
func powerCapReport(rows []PowerCapRow) Report {
	rep := textReport(powerCapTable(rows).Text())
	prefix := func(r PowerCapRow) string {
		if r.CapW > 0 {
			return fmt.Sprintf("powercap_%.0fw", r.CapW)
		}
		return "powercap_none"
	}
	for _, r := range rows {
		rep.Add(powerTraceCSV(prefix(r)+"_rigid_power.csv", r.Rigid.Res.Power))
		rep.Add(powerTraceCSV(prefix(r)+"_malleable_power.csv", r.Malleable.Res.Power))
	}
	for _, r := range rows {
		title := "Cluster power draw (uncapped)"
		if r.CapW > 0 {
			title = fmt.Sprintf("Cluster power draw (cap %.0f W)", r.CapW)
		}
		rep.Add(powerTraceSVG(prefix(r)+"_power.svg", title, r.CapW, []string{"rigid", "malleable"}, r.Rigid.Res, r.Malleable.Res))
	}
	return rep
}
