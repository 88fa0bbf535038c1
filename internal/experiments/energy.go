package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// EnergySizes are the workload sizes of the energy study.
var EnergySizes = []int{25, 50, 100}

// DefaultIdleSleep is the idle timeout before free nodes drop to the
// shallow sleep state in the energy experiments: long enough that nodes
// do not thrash across back-to-back jobs, short against job runtimes.
const DefaultIdleSleep = 120 * sim.Second

// idleSleep is the experiments' one-rung sleep ladder: S0 after
// DefaultIdleSleep.
func idleSleep() []slurm.SleepRung { return []slurm.SleepRung{{AfterIdle: DefaultIdleSleep}} }

// EnergyRow compares one workload under three regimes on the same
// 65-node machine with power accounting and idle sleep enabled: rigid
// (no malleability), malleable under Algorithm 1 (throughput-biased),
// and malleable under the energy-aware policy.
type EnergyRow struct {
	Jobs      int
	Rigid     *metrics.WorkloadResult
	Malleable *metrics.WorkloadResult
	Aware     *metrics.WorkloadResult
}

// RigidKJ returns the rigid run's total cluster energy in kilojoules.
func (r EnergyRow) RigidKJ() float64 { return r.Rigid.EnergyJ / 1e3 }

// MalleableGainPct is the energy saved by plain malleability.
func (r EnergyRow) MalleableGainPct() float64 {
	return metrics.GainPct(r.Rigid.EnergyJ, r.Malleable.EnergyJ)
}

// AwareGainPct is the energy saved by the energy-aware policy.
func (r EnergyRow) AwareGainPct() float64 {
	return metrics.GainPct(r.Rigid.EnergyJ, r.Aware.EnergyJ)
}

// energyConfig builds the experiment system: accounting on, idle nodes
// sleeping after DefaultIdleSleep, and the requested policy variant.
func energyConfig(aware bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Energy = true
	cfg.SleepLadder = idleSleep()
	cfg.EnergyPolicy = aware
	return cfg
}

// Energy runs the rigid-vs-malleable energy comparison: the same seeded
// realistic workload (CG, Jacobi, N-body) executed rigid, malleable
// under Algorithm 1, and malleable under the energy-aware policy,
// reporting total cluster energy over each run's own makespan.
func Energy(sizes []int, seed int64) []EnergyRow {
	var out []EnergyRow
	for _, n := range sizes {
		specs := workload.Generate(workload.Realistic(n, seed))
		out = append(out, EnergyRow{
			Jobs:      n,
			Rigid:     core.RunWorkload(energyConfig(false), workload.SetFlexible(specs, false)),
			Malleable: core.RunWorkload(energyConfig(false), workload.SetFlexible(specs, true)),
			Aware:     core.RunWorkload(energyConfig(true), workload.SetFlexible(specs, true)),
		})
	}
	return out
}

// energyTables is the energy comparison: total energy, mean draw and
// makespan per regime, with savings relative to rigid.
func energyTables(rows []EnergyRow) string {
	totals := &Table{Title: "Energy: rigid vs malleable vs energy-aware policy (same seeded workload)", Cols: []Col{
		{"jobs", 6}, {"rigid(kJ)", 12}, {"mall(kJ)", 12}, {"aware(kJ)", 12}, {"mgain%", 8}, {"again%", 8},
		{"rigid(W)", 10}, {"mall(W)", 10}, {"aware(W)", 10},
	}}
	perJob := &Table{Title: "per-job energy (kJ/job) and makespan (s):", Cols: []Col{
		{"jobs", 6}, {"rigid", 12}, {"mall", 12}, {"aware", 12}, {"rigid(s)", 10}, {"mall(s)", 10}, {"aware(s)", 10},
	}}
	kJPerJob := func(res *metrics.WorkloadResult) string { return num(res.EnergyJ/1e3/float64(res.Jobs), 1) }
	for _, r := range rows {
		totals.Row(fmt.Sprint(r.Jobs), num(r.Rigid.EnergyJ/1e3, 0), num(r.Malleable.EnergyJ/1e3, 0), num(r.Aware.EnergyJ/1e3, 0),
			num(r.MalleableGainPct(), 2), num(r.AwareGainPct(), 2),
			num(r.Rigid.AvgPowerW, 0), num(r.Malleable.AvgPowerW, 0), num(r.Aware.AvgPowerW, 0))
		perJob.Row(fmt.Sprint(r.Jobs), kJPerJob(r.Rigid), kJPerJob(r.Malleable), kJPerJob(r.Aware),
			num(r.Rigid.Makespan.Seconds(), 0), num(r.Malleable.Makespan.Seconds(), 0), num(r.Aware.Makespan.Seconds(), 0))
	}
	return totals.Text() + perJob.Text()
}

// energyReport is the comparison's tables with, per workload size, the
// three regimes' power traces (CSV and one SVG), plus the energy bars.
func energyReport(rows []EnergyRow) Report {
	rep := textReport(energyTables(rows))
	names := []string{"rigid", "malleable", "energy-aware"}
	var groups []metrics.BarGroup
	for _, r := range rows {
		prefix := fmt.Sprintf("energy_%dj", r.Jobs)
		rep.Add(powerTraceCSV(prefix+"_rigid_power.csv", r.Rigid.Power))
		rep.Add(powerTraceCSV(prefix+"_malleable_power.csv", r.Malleable.Power))
		rep.Add(powerTraceCSV(prefix+"_aware_power.csv", r.Aware.Power))
		groups = append(groups, metrics.BarGroup{
			Label:  fmt.Sprintf("%d jobs", r.Jobs),
			Values: []float64{r.Rigid.EnergyJ / 1e3, r.Malleable.EnergyJ / 1e3, r.Aware.EnergyJ / 1e3},
		})
	}
	rep.Add(Artifact{Name: "energy.svg", Write: func(w io.Writer) error {
		return metrics.WriteBarsSVG(w, "Total cluster energy per workload", "energy (kJ)", names, palette, groups)
	}})
	for _, r := range rows {
		rep.Add(powerTraceSVG(fmt.Sprintf("energy_%dj_power.svg", r.Jobs), fmt.Sprintf("Cluster power draw (%d jobs)", r.Jobs),
			0, names, r.Rigid, r.Malleable, r.Aware))
	}
	return rep
}

// powerTraceCSV is one run's power trace as a CSV artifact.
func powerTraceCSV(name string, tr *metrics.PowerTrace) Artifact {
	return Artifact{Name: name, Write: func(w io.Writer) error { return metrics.WritePowerCSV(w, tr) }}
}

// powerTraceSVG charts the runs' power draw over the longest makespan,
// with the cap as a reference line when capW > 0.
func powerTraceSVG(name, title string, capW float64, names []string, runs ...*metrics.WorkloadResult) Artifact {
	var end sim.Time
	var traces []*metrics.PowerTrace
	for _, r := range runs {
		end = max(end, r.Makespan)
		traces = append(traces, r.Power)
	}
	return Artifact{Name: name, Write: func(w io.Writer) error {
		return metrics.WritePowerSVG(w, title, end, capW, names, palette[:len(names)], traces)
	}}
}
