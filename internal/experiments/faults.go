package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// The fault-tolerance study: the same seeded realistic workload under a
// deterministic node-failure model, swept over per-node MTBF, executed
// three ways — rigid jobs restarted from scratch on every crash, rigid
// jobs protected by periodic application checkpoints, and malleable
// jobs that shrink onto the surviving nodes at the next reconfiguring
// point. The injector's RNG stream is independent of the workload
// generator's, so all three regimes face the byte-identical failure
// schedule; the table isolates what each recovery strategy does with
// it: lost work, requeue churn, makespan and energy.

// FaultJobs is the workload size of the fault study.
const FaultJobs = 20

// FaultMTBFs is the per-node MTBF sweep, harsh to mild against the
// study's few-thousand-second makespans on the 65-node machine.
var FaultMTBFs = []sim.Time{
	20000 * sim.Second,
	40000 * sim.Second,
	80000 * sim.Second,
}

// FaultMTTR is the mean repair time: long enough that a dead node is
// felt, short against the makespan so capacity returns within the run.
const FaultMTTR = 600 * sim.Second

// FaultCkptEvery is the periodic-checkpoint cadence (iterations) of the
// rigid+ckpt regime: roughly one CG/Jacobi inhibitor span of work
// between checkpoints. Short-iteration classes (FS, N-body) finish
// before the first checkpoint and effectively run unprotected.
const FaultCkptEvery = 1000

// FaultHorizon bounds crash injection well past any regime's makespan;
// failures after a regime's last job land on an idle cluster.
const FaultHorizon = 30000 * sim.Second

// FaultRegimes is the fixed regime order of every row.
var FaultRegimes = []string{"rigid", "rigid+ckpt", "malleable"}

// FaultRun is one recovery regime under one MTBF.
type FaultRun struct {
	Regime string
	Res    *metrics.WorkloadResult
	Stats  slurm.FaultStats
}

// FaultRow is one MTBF level: the three regimes over the identical
// injected failure schedule.
type FaultRow struct {
	MTBF sim.Time
	Jobs int
	Runs []FaultRun // in FaultRegimes order
}

// faultConfig builds the study's system: energy accounting (the fault
// machinery runs on the accountant's meters), the injector at one MTBF,
// and the regime's checkpoint cadence.
func faultConfig(mtbf sim.Time, ckptEvery int, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.SleepLadder = idleSleep()
	cfg.Faults = &faults.Config{
		MTBF:    mtbf,
		MTTR:    FaultMTTR,
		Horizon: FaultHorizon,
		Seed:    seed,
	}
	cfg.CkptEvery = ckptEvery
	return cfg
}

// runFaults executes one workload and collects the fault counters.
func runFaults(cfg core.Config, specs []workload.Spec) (*metrics.WorkloadResult, slurm.FaultStats) {
	s := core.NewSystem(cfg)
	s.SubmitAll(specs)
	res := s.Run()
	return res, s.Ctl.FaultStats()
}

// Faults runs the MTBF sweep over the three recovery regimes.
func Faults(jobs int, mtbfs []sim.Time, seed int64) []FaultRow {
	var rows []FaultRow
	for _, mtbf := range mtbfs {
		specs := workload.Generate(workload.Realistic(jobs, seed))
		row := FaultRow{MTBF: mtbf, Jobs: jobs}
		for _, regime := range FaultRegimes {
			ckpt := 0
			if regime == "rigid+ckpt" {
				ckpt = FaultCkptEvery
			}
			flexible := regime == "malleable"
			res, fs := runFaults(faultConfig(mtbf, ckpt, seed),
				workload.SetFlexible(specs, flexible))
			row.Runs = append(row.Runs, FaultRun{Regime: regime, Res: res, Stats: fs})
		}
		rows = append(rows, row)
	}
	return rows
}

// faultsText renders the study: per MTBF, the three regimes' makespan,
// energy, and what the failure schedule cost each of them. A blank
// first column indents each table under its heading.
func faultsText(rows []FaultRow) string {
	var b strings.Builder
	b.WriteString("Faults: rigid restart vs rigid+checkpoint vs malleable shrink-to-survive (same injected failure schedule)\n")
	for _, r := range rows {
		t := &Table{Title: fmt.Sprintf("MTBF %.0f s/node, %d jobs:", r.MTBF.Seconds(), r.Jobs), Cols: []Col{
			{"", 1}, {"regime", -12}, {"mkspan(s)", 10}, {"energy(kJ)", 12}, {"failures", 9}, {"requeues", 9},
			{"shrinks", 9}, {"lostwork(s)", 12},
		}}
		for _, run := range r.Runs {
			t.Row("", run.Regime, num(run.Res.Makespan.Seconds(), 0), num(run.Res.EnergyJ/1e3, 0),
				fmt.Sprint(run.Stats.Failures), fmt.Sprint(run.Stats.Requeues), fmt.Sprint(run.Stats.Shrinks),
				num(run.Stats.LostWorkS, 1))
		}
		b.WriteString(t.Text())
	}
	return b.String()
}

// faultsSummary is the study as one CSV row per regime per MTBF — the
// golden-pinned artifact of the -exp faults command.
func faultsSummary(rows []FaultRow) *Table {
	t := csvTable("mtbf_s,jobs,regime,makespan_s,energy_j,failures,requeues,shrinks,boot_fails,lost_work_s")
	for _, r := range rows {
		for _, run := range r.Runs {
			t.Row(num(r.MTBF.Seconds(), 0), fmt.Sprint(r.Jobs), run.Regime,
				num(run.Res.Makespan.Seconds(), 3), num(run.Res.EnergyJ, 1),
				fmt.Sprint(run.Stats.Failures), fmt.Sprint(run.Stats.Requeues), fmt.Sprint(run.Stats.Shrinks),
				fmt.Sprint(run.Stats.BootFails), num(run.Stats.LostWorkS, 1))
		}
	}
	return t
}

// faultsReport is the study's text with its summary CSV.
func faultsReport(rows []FaultRow) Report {
	rep := textReport(faultsText(rows))
	rep.Add(Artifact{Name: "faults_summary.csv", Write: faultsSummary(rows).WriteCSV})
	return rep
}
