package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// The thermal study exercises the node power-state dynamics end to end.
// Part one (Thermal) runs the same sustained mixed-fleet workload under
// three regimes — rigid, class-blind malleable, class-aware — twice
// each: once with ideal machines and once with thermal envelopes, so
// the throttle-driven makespan stretch is measured per regime. The
// paper's thesis extends to thermals: malleability lets the workload
// reshape around machines the physics slowed down, halving the
// relative stretch at moderate load. Honest caveat at dense load: the
// flexible regimes pack the machine so tightly that heat has nowhere
// to dissipate and their percentage stretch converges with rigid's —
// while their absolute makespans stay roughly 2x better. Part two
// (LadderSweep) runs a sparse workload — long idle gaps between jobs —
// across sleep configurations: the single shallow S-state (today's
// default), the single deep S-state, and the two-rung ladder, showing
// deep rungs beat the shallow baseline on energy once gaps are long
// enough to amortize the wake cost.

// ThermalJobs is the sustained-load workload size of the study.
const ThermalJobs = 40

// LadderJobs is the sparse-load workload size of the ladder sweep.
const LadderJobs = 15

// ThermalRun is one regime execution with the envelope on, paired with
// its envelope-off baseline.
type ThermalRun struct {
	Res  *metrics.WorkloadResult
	Base *metrics.WorkloadResult // same regime on ideal (non-throttling) machines
	// ThrottleEvents / RestoreEvents count thermal DVFS steps.
	ThrottleEvents int
	RestoreEvents  int
	// ThermalNodeSec sums the thermal_throttled_s accounting column.
	ThermalNodeSec float64
	// PeakC is the hottest node temperature observed.
	PeakC float64
}

// StretchPct is the makespan the thermal envelope costs this regime,
// as a percentage of its ideal-machine makespan.
func (r ThermalRun) StretchPct() float64 {
	base := r.Base.Makespan.Seconds()
	if base == 0 {
		return 0
	}
	return (r.Res.Makespan.Seconds() - base) / base * 100
}

// ThermalRow compares the three regimes on one fleet.
type ThermalRow struct {
	Jobs                 int
	FastNodes, SlowNodes int
	Rigid                ThermalRun
	Malleable            ThermalRun
	ClassAware           ThermalRun
}

// Thermal runs the sustained-load study on the 50:50 mixed fleet.
func Thermal(jobs int, seed int64) ThermalRow {
	params := workload.Realistic(jobs, seed)
	params.ClassMix = workload.DefaultClassMix()
	specs := workload.Generate(params)
	blind := workload.StripPreferences(specs)
	pc := mixedPlatform(33)
	row := ThermalRow{Jobs: jobs, FastNodes: pc.Classes[0].Count, SlowNodes: pc.Classes[1].Count}
	regime := func(classAware bool, regimeSpecs []workload.Spec) ThermalRun {
		run := ThermalRun{}
		run.Base, _ = thermalRunOn(pc, classAware, false, regimeSpecs)
		var sys *core.System
		run.Res, sys = thermalRunOn(pc, classAware, true, regimeSpecs)
		for _, ev := range sys.Ctl.Events {
			switch ev.Kind {
			case slurm.EvThermalThrottle:
				run.ThrottleEvents++
			case slurm.EvThermalRestore:
				run.RestoreEvents++
			}
		}
		for _, rec := range sys.Ctl.Accounting() {
			run.ThermalNodeSec += rec.ThermalThrottledSec
		}
		if run.Res.Temp != nil {
			run.PeakC = run.Res.Temp.PeakC(run.Res.Makespan)
		}
		return run
	}
	row.Rigid = regime(false, workload.SetFlexible(blind, false))
	row.Malleable = regime(false, workload.SetFlexible(blind, true))
	row.ClassAware = regime(true, workload.SetFlexible(specs, true))
	return row
}

// thermalRunOn executes one regime on the fleet, with or without
// envelopes.
func thermalRunOn(pc platform.Config, classAware, thermal bool, specs []workload.Spec) (*metrics.WorkloadResult, *core.System) {
	cfg := energyConfig(false)
	cfg.Platform = &pc
	cfg.ClassAware = classAware
	cfg.Thermal = thermal
	sys := core.NewSystem(cfg)
	sys.SubmitAll(specs)
	return sys.Run(), sys
}

// LadderRun is one sleep configuration's execution of the sparse
// workload.
type LadderRun struct {
	Name       string
	Res        *metrics.WorkloadResult
	SleepSteps int // EvSleep events (rung descents included)
	Wakes      int
}

// LadderSweep compares sleep configurations on a sparse rigid workload:
// jobs arrive far enough apart that idle nodes see both rungs.
func LadderSweep(jobs int, seed int64) []LadderRun {
	params := workload.Realistic(jobs, seed)
	params.MeanArrival = 15 * sim.Minute
	specs := workload.SetFlexible(workload.Generate(params), false)
	run := func(name string, mut func(*core.Config)) LadderRun {
		cfg := energyConfig(false)
		mut(&cfg)
		sys := core.NewSystem(cfg)
		sys.SubmitAll(specs)
		out := LadderRun{Name: name, Res: sys.Run()}
		for _, ev := range sys.Ctl.Events {
			if ev.Kind == slurm.EvSleep {
				out.SleepSteps++
			}
		}
		out.Wakes = sys.Energy.Wakes()
		return out
	}
	return []LadderRun{
		run("single-s0", func(*core.Config) {}), // the energy studies' default: S0 after DefaultIdleSleep
		run("single-s1", func(c *core.Config) { c.SleepLadder = []slurm.SleepRung{{AfterIdle: DefaultIdleSleep, State: 1}} }),
		run("ladder", func(c *core.Config) { c.SleepLadder = slurm.DefaultSleepLadder() }),
	}
}

// runs returns the sustained-load study's runs in regimeNames order.
func (r ThermalRow) runs() []ThermalRun { return []ThermalRun{r.Rigid, r.Malleable, r.ClassAware} }

// thermalTable is the sustained-load study.
func thermalTable(r ThermalRow) *Table {
	t := &Table{
		Title: fmt.Sprintf("Thermal DVFS: makespan stretch under the envelope (%d fast : %d efficiency, %d jobs)",
			r.FastNodes, r.SlowNodes, r.Jobs),
		Cols: []Col{{"regime", 11}, {"ideal(s)", 12}, {"thermal(s)", 12}, {"stretch%", 9},
			{"throttles", 10}, {"restores", 10}, {"thr(ns)", 9}, {"peak°C", 8}},
	}
	for i, run := range r.runs() {
		t.Row(regimeNames[i], num(run.Base.Makespan.Seconds(), 0), num(run.Res.Makespan.Seconds(), 0),
			num(run.StretchPct(), 2), fmt.Sprint(run.ThrottleEvents), fmt.Sprint(run.RestoreEvents),
			num(run.ThermalNodeSec, 0), num(run.PeakC, 1))
	}
	return t
}

// ladderTable is the sparse-load sleep sweep.
func ladderTable(runs []LadderRun) *Table {
	t := &Table{Title: "S-state ladder: sparse-load energy by sleep configuration", Cols: []Col{
		{"config", 10}, {"makespan(s)", 12}, {"energy(kJ)", 12}, {"avg(W)", 10}, {"sleeps", 8}, {"wakes", 8},
	}}
	for _, run := range runs {
		t.Row(run.Name, num(run.Res.Makespan.Seconds(), 0), num(run.Res.EnergyJ/1e3, 0),
			num(run.Res.AvgPowerW, 0), fmt.Sprint(run.SleepSteps), fmt.Sprint(run.Wakes))
	}
	return t
}

// thermalSummary is both halves of the study as one CSV table (the
// golden-pinned artifact of -exp thermal).
func thermalSummary(r ThermalRow, ladders []LadderRun) *Table {
	t := csvTable("study,variant,jobs,makespan_s,energy_j,stretch_pct,throttle_events,restore_events,thermal_node_s,peak_temp_c,sleep_steps,wakes")
	for i, run := range r.runs() {
		t.Row("thermal", regimeNames[i], fmt.Sprint(r.Jobs), num(run.Res.Makespan.Seconds(), 3), num(run.Res.EnergyJ, 1),
			num(run.StretchPct(), 2), fmt.Sprint(run.ThrottleEvents), fmt.Sprint(run.RestoreEvents),
			num(run.ThermalNodeSec, 1), num(run.PeakC, 2), "0", "0")
	}
	for _, run := range ladders {
		t.Row("ladder", run.Name, fmt.Sprint(run.Res.Jobs), num(run.Res.Makespan.Seconds(), 3), num(run.Res.EnergyJ, 1),
			"0", "0", "0", "0", "0", fmt.Sprint(run.SleepSteps), fmt.Sprint(run.Wakes))
	}
	return t
}

// thermalReport is the study's two tables with the summary CSV and each
// regime's hottest-node temperature trace (CSV, and an SVG against the
// envelope).
func thermalReport(r ThermalRow, ladders []LadderRun) Report {
	rep := textReport(thermalTable(r).Text(), ladderTable(ladders).Text())
	rep.Add(Artifact{Name: "thermal_summary.csv", Write: thermalSummary(r, ladders).WriteCSV})
	for i, run := range r.runs() {
		if tr := run.Res.Temp; tr != nil {
			rep.Add(Artifact{Name: "thermal_" + regimeNames[i] + "_temp.csv", Write: func(w io.Writer) error { return metrics.WriteTempCSV(w, tr) }})
		}
	}
	th := energy.DefaultThermalFor(energy.DefaultProfile())
	for i, run := range r.runs() {
		if tr := run.Res.Temp; tr != nil {
			title := fmt.Sprintf("Hottest node temperature (%s regime)", regimeNames[i])
			rep.Add(Artifact{Name: "thermal_" + regimeNames[i] + "_temp.svg", Write: func(w io.Writer) error {
				return metrics.WriteTempSVG(w, title, run.Res.Makespan, th.ThrottleC, th.RestoreC, tr)
			}})
		}
	}
	return rep
}
