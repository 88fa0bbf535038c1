package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig3Sizes are the workload sizes of the preliminary study.
var Fig3Sizes = []int{10, 25, 50, 100, 200, 400}

// Fig3 reproduces Figure 3: fixed vs flexible FS workloads under
// synchronous reconfiguration scheduling, for each workload size.
func Fig3(sizes []int, seed int64) []Comparison {
	var out []Comparison
	for _, n := range sizes {
		specs := workload.Generate(workload.Preliminary(n, 1, seed))
		out = append(out, runPair(preliminaryConfig(), specs))
	}
	return out
}

// Fig7 reproduces Figure 7: the same comparison with asynchronous
// selection of the action (dmr_icheck_status).
func Fig7(sizes []int, seed int64) []Comparison {
	var out []Comparison
	for _, n := range sizes {
		specs := workload.Generate(workload.Preliminary(n, 1, seed))
		cfg := preliminaryConfig()
		cfg.Async = true
		out = append(out, runPair(cfg, specs))
	}
	return out
}

// EvolutionKind selects which evolution trace to produce.
type EvolutionKind int

// Trace kinds for the evolution figures.
const (
	EvoFig4  EvolutionKind = iota // 10-job preliminary, sync
	EvoFig5                       // 25-job preliminary, sync
	EvoFig6                       // 10-job preliminary, async
	EvoFig12                      // 50-job realistic
)

// Evolution reproduces the time-evolution figures (4, 5, 6 and 12): it
// runs the workload in both modes and returns the two results, whose
// traces plot allocated nodes, running jobs and completed jobs.
func Evolution(kind EvolutionKind, seed int64) (fixed, flexible *metrics.WorkloadResult) {
	var cfg core.Config
	var specs []workload.Spec
	switch kind {
	case EvoFig4:
		cfg = preliminaryConfig()
		specs = workload.Generate(workload.Preliminary(10, 1, seed))
	case EvoFig5:
		cfg = preliminaryConfig()
		specs = workload.Generate(workload.Preliminary(25, 1, seed))
	case EvoFig6:
		cfg = preliminaryConfig()
		cfg.Async = true
		specs = workload.Generate(workload.Preliminary(10, 1, seed))
	case EvoFig12:
		cfg = realisticConfig()
		specs = workload.Generate(workload.Realistic(50, seed))
	}
	pair := runPair(cfg, specs)
	return pair.Fixed, pair.Flexible
}

// RatioResult is one bar of Figure 8.
type RatioResult struct {
	RatioPct int
	Result   *metrics.WorkloadResult
}

// Fig8 reproduces Figure 8: 100-job workloads with a growing share of
// flexible jobs (0%, 25%, 50%, 75%, 100%).
func Fig8(jobs int, seed int64) []RatioResult {
	var out []RatioResult
	for _, pct := range []int{0, 25, 50, 75, 100} {
		specs := workload.Generate(workload.Preliminary(jobs, float64(pct)/100, seed))
		res := core.RunWorkload(preliminaryConfig(), specs)
		out = append(out, RatioResult{RatioPct: pct, Result: res})
	}
	return out
}

// fig8Table is the ratio sweep, one sentence per flexible share.
func fig8Table(rs []RatioResult) *Table {
	t := &Table{Title: "Figure 8: execution time vs rate of flexible jobs", Cols: []Col{{"", 15}, {"", 8}, {"", 0}}}
	base := rs[0].Result.Makespan.Seconds()
	for _, r := range rs {
		t.Row(fmt.Sprintf("%d%% flexible:", r.RatioPct), num(r.Result.Makespan.Seconds(), 0),
			fmt.Sprintf("s (gain %+.2f%%)", metrics.GainPct(base, r.Result.Makespan.Seconds())))
	}
	return t
}

// Fig9Periods are the checking-inhibitor periods of Figure 9; -1 encodes
// the fixed baseline and 0 the plain flexible run without inhibition.
var Fig9Periods = []sim.Time{0, 2 * sim.Second, 5 * sim.Second, 10 * sim.Second, 20 * sim.Second}

// Fig9Sizes are the workload sizes of Figure 9.
var Fig9Sizes = []int{10, 25, 50, 100}

// Fig9Cell is one (period, size) measurement.
type Fig9Cell struct {
	Period  sim.Time // 0 = plain flexible (no inhibitor)
	Jobs    int
	Fixed   *metrics.WorkloadResult
	Flex    *metrics.WorkloadResult
	GainPct float64
}

// Fig9 reproduces Figure 9: FS workloads with micro-steps (≈2 s average)
// where every iteration hits a reconfiguring point, swept over
// checking-inhibitor periods.
func Fig9(sizes []int, periods []sim.Time, seed int64) []Fig9Cell {
	var out []Fig9Cell
	for _, n := range sizes {
		params := workload.Preliminary(n, 1, seed)
		// §VIII-E: reduce the time step to an average of 2 seconds.
		params.MeanRuntime = 50 * sim.Second // 25 steps × ~2 s
		params.MaxStepTime = 4 * sim.Second
		specs := workload.Generate(params)

		cfg := preliminaryConfig()
		cfg.SchedPeriod = 0
		fixed := core.RunWorkload(cfg, workload.SetFlexible(specs, false))
		for _, period := range periods {
			cfg := preliminaryConfig()
			cfg.SchedPeriod = period
			flex := core.RunWorkload(cfg, workload.SetFlexible(specs, true))
			out = append(out, Fig9Cell{
				Period: period, Jobs: n, Fixed: fixed, Flex: flex,
				GainPct: metrics.GainPct(fixed.Makespan.Seconds(), flex.Makespan.Seconds()),
			})
		}
	}
	return out
}

// fig9Table is the inhibitor grid: one row per period, one gain column
// per workload size.
func fig9Table(cells []Fig9Cell) *Table {
	byPeriod := map[sim.Time]map[int]Fig9Cell{}
	var periods []sim.Time
	var sizes []int
	seenN := map[int]bool{}
	for _, c := range cells {
		if byPeriod[c.Period] == nil {
			byPeriod[c.Period] = map[int]Fig9Cell{}
			periods = append(periods, c.Period)
		}
		byPeriod[c.Period][c.Jobs] = c
		if !seenN[c.Jobs] {
			seenN[c.Jobs] = true
			sizes = append(sizes, c.Jobs)
		}
	}
	t := &Table{Title: "Figure 9: gain vs fixed for inhibitor periods (rows) and workload sizes (columns)",
		Cols: []Col{{"", -10}}}
	for _, n := range sizes {
		t.Cols = append(t.Cols, Col{fmt.Sprintf("%dj", n), 8})
	}
	for _, p := range periods {
		row := []string{"Flexible"}
		if p > 0 {
			row[0] = fmt.Sprintf("Sched %d", int(p.Seconds()))
		}
		for _, n := range sizes {
			row = append(row, fmt.Sprintf("%+.2f%%", byPeriod[p][n].GainPct))
		}
		t.Row(row...)
	}
	return t
}

// evolutionStudy is the registry entry of one time-evolution figure:
// ASCII charts of allocated nodes and completed jobs for the fixed and
// flexible runs, with the raw series as CSV and the charts as SVG.
func evolutionStudy(name, title string, kind EvolutionKind) Study {
	return Study{[]string{name}, func(o Options) (Report, error) {
		fixed, flex := Evolution(kind, o.Seed)
		end := max(fixed.Makespan, flex.Makespan)
		runs := []struct {
			mode string
			res  *metrics.WorkloadResult
		}{{"fixed", fixed}, {"flexible", flex}}
		var rep Report
		for _, run := range runs {
			rep.Add(Artifact{Name: name + "_" + run.mode + ".csv", Note: fmt.Sprintf(" (%d samples)", len(run.res.Trace.Samples)),
				Write: func(w io.Writer) error { return metrics.WriteTraceCSV(w, run.res.Trace) }})
		}
		var b strings.Builder
		b.WriteString(title + "\n")
		for _, chart := range []struct {
			suffix, what, yLabel string
			yMax                 int
			value                func(metrics.Sample) int
		}{
			{"alloc", "allocated nodes", "nodes", fixed.Trace.TotalNodes, func(s metrics.Sample) int { return s.Alloc }},
			{"completed", "completed jobs", "jobs", fixed.Jobs, func(s metrics.Sample) int { return s.Completed }},
		} {
			var series []metrics.Series
			for i, run := range runs {
				series = append(series, metrics.Series{Name: run.mode, Color: palette[i], Trace: run.res.Trace, Value: chart.value})
				b.WriteString(metrics.AsciiChart(run.mode+": "+chart.what, run.res.Trace, chart.value, chart.yMax, 72, end))
			}
			rep.Add(Artifact{Name: name + "_" + chart.suffix + ".svg", Write: func(w io.Writer) error {
				return metrics.WriteEvolutionSVG(w, title+": "+chart.what, chart.yLabel, chart.yMax, end, series)
			}})
		}
		fmt.Fprintf(&b, "fixed makespan %.0f s | flexible makespan %.0f s | gain %.2f%%\n\n",
			fixed.Makespan.Seconds(), flex.Makespan.Seconds(),
			metrics.GainPct(fixed.Makespan.Seconds(), flex.Makespan.Seconds()))
		rep.Print(b.String())
		return rep, nil
	}}
}
