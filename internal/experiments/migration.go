package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// The live-migration study: the same seeded sparse workload on a mixed
// Xeon/efficiency fleet with the stock sleep ladder, once with the
// migration pass off and once with it on. Placement is class-blind —
// today's behavior on heterogeneous hardware — so jobs land wherever
// nodes are free: some straddle classes and step at the slowest one,
// and off-peak stragglers pin premium racks awake. The migration pass
// cleans both up through checkpoint/restart moves (defragment onto a
// pure class, consolidate onto the efficiency class when the queue is
// empty), paying the modeled C/R cost each time. The table answers
// whether the moves' energy savings survive that honestly-charged
// price without giving up makespan.

// MigrationJobs is the workload size of the full migration study.
const MigrationJobs = 60

// MigrationFastNodes is the reference-class share of the 65-node
// testbed: the headline near-50:50 split of the mixed-fleet study.
const MigrationFastNodes = 33

// MigrationPatterns is the arrival-shape sweep. Both shapes have real
// lulls (elasticParams stretches the mean arrival), which is when the
// consolidate reason is allowed to fire.
var MigrationPatterns = []string{"diurnal", "bursty"}

// MigrationRun is one workload execution with or without the pass.
type MigrationRun struct {
	Res   *metrics.WorkloadResult
	Stats slurm.MigrationStats
}

// MigrationRow compares one arrival shape: migration off vs on over
// the identical job stream and fleet.
type MigrationRow struct {
	Pattern   string // "diurnal" or "bursty"
	Jobs      int
	FastNodes int
	SlowNodes int
	Off       MigrationRun
	On        MigrationRun
}

// EnergyGainPct is the energy saved by the migration pass relative to
// the migration-off run.
func (r MigrationRow) EnergyGainPct() float64 {
	return metrics.GainPct(r.Off.Res.EnergyJ, r.On.Res.EnergyJ)
}

// MakespanDeltaPct is the makespan change the pass imposes (positive:
// the migrated run finished later).
func (r MigrationRow) MakespanDeltaPct() float64 {
	return -metrics.GainPct(r.Off.Res.Makespan.Seconds(), r.On.Res.Makespan.Seconds())
}

// migrationConfig builds the study's system: energy accounting with
// the stock sleep ladder on the mixed fleet, class-blind placement,
// and the migration pass when mig is non-nil. The stock selection
// policy doubles as the migration picker.
func migrationConfig(mig *slurm.MigrationConfig) core.Config {
	cfg := core.DefaultConfig()
	cfg.SleepLadder = slurm.DefaultSleepLadder()
	pc := mixedPlatform(MigrationFastNodes)
	cfg.Platform = &pc
	cfg.Migration = mig
	return cfg
}

// runMigrationStudy executes one workload and collects the pass's
// accounting.
func runMigrationStudy(cfg core.Config, specs []workload.Spec) MigrationRun {
	s := core.NewSystem(cfg)
	s.SubmitAll(specs)
	run := MigrationRun{Res: s.Run()}
	run.Stats = s.Ctl.MigrationStats()
	return run
}

// Migration runs the off-vs-on comparison over the given arrival
// shapes (nil: the full MigrationPatterns sweep). Jobs are run rigid:
// the study isolates scheduler-driven migration from job malleability,
// and rigid codes are exactly the ones malleability cannot help. An
// unknown pattern name returns an error before anything runs.
func Migration(jobs int, patterns []string, seed int64) ([]MigrationRow, error) {
	if patterns == nil {
		patterns = MigrationPatterns
	}
	var rows []MigrationRow
	for _, pattern := range patterns {
		params, err := elasticParams(jobs, pattern, seed)
		if err != nil {
			return nil, err
		}
		specs := workload.SetFlexible(workload.Generate(params), false)
		pc := mixedPlatform(MigrationFastNodes)
		row := MigrationRow{
			Pattern: pattern, Jobs: jobs,
			FastNodes: pc.Classes[0].Count, SlowNodes: pc.Classes[1].Count,
		}
		row.Off = runMigrationStudy(migrationConfig(nil), specs)
		row.On = runMigrationStudy(migrationConfig(&slurm.MigrationConfig{}), specs)
		rows = append(rows, row)
	}
	return rows, nil
}

// migrationText renders the study: one off and one on row per arrival
// shape. A blank first column indents each table under its heading.
func migrationText(rows []MigrationRow) string {
	var b strings.Builder
	b.WriteString("Live migration: class-blind mixed fleet with sleep ladder, migration pass off vs on (same seeded workload, rigid jobs)\n")
	for _, r := range rows {
		t := &Table{Title: fmt.Sprintf("%s arrivals, %d jobs, fleet %d:%d:", r.Pattern, r.Jobs, r.FastNodes, r.SlowNodes), Cols: []Col{
			{"", 1}, {"regime", -10}, {"energy(kJ)", 12}, {"gain%", 8}, {"mkspan(s)", 10}, {"avgwait(s)", 12},
			{"orders", 8}, {"moves", 8}, {"cost(s)", 10},
		}}
		t.Row("", "off", num(r.Off.Res.EnergyJ/1e3, 0), "-", num(r.Off.Res.Makespan.Seconds(), 0),
			num(r.Off.Res.AvgWait.Seconds(), 0), "-", "-", "-")
		t.Row("", "migrate", num(r.On.Res.EnergyJ/1e3, 0), num(r.EnergyGainPct(), 2), num(r.On.Res.Makespan.Seconds(), 0),
			num(r.On.Res.AvgWait.Seconds(), 0), fmt.Sprint(r.On.Stats.Orders), fmt.Sprint(r.On.Stats.Migrations),
			num(r.On.Stats.MigratedS, 1))
		b.WriteString(t.Text())
	}
	return b.String()
}

// migrationSummary is the study as one CSV row per regime — the
// golden-pinned artifact of the -exp migration command.
func migrationSummary(rows []MigrationRow) *Table {
	t := csvTable("pattern,jobs,fast_nodes,slow_nodes,regime,energy_j,makespan_s,avg_wait_s,p95_wait_s,orders,migrations,migrated_s")
	for _, r := range rows {
		row := func(regime string, run MigrationRun, orders, migrations, migratedS string) {
			t.Row(r.Pattern, fmt.Sprint(r.Jobs), fmt.Sprint(r.FastNodes), fmt.Sprint(r.SlowNodes), regime,
				num(run.Res.EnergyJ, 1), num(run.Res.Makespan.Seconds(), 3),
				num(run.Res.AvgWait.Seconds(), 3), num(run.Res.P95Wait.Seconds(), 3), orders, migrations, migratedS)
		}
		row("off", r.Off, "", "", "")
		row("migrate", r.On, fmt.Sprint(r.On.Stats.Orders), fmt.Sprint(r.On.Stats.Migrations), num(r.On.Stats.MigratedS, 1))
	}
	return t
}

// migrationReport is the study's text with its summary CSV.
func migrationReport(rows []MigrationRow) Report {
	rep := textReport(migrationText(rows))
	rep.Add(Artifact{Name: "migration_summary.csv", Write: migrationSummary(rows).WriteCSV})
	return rep
}
