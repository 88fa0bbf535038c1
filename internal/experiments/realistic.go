package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// RealisticSizes are the workload sizes of the §IX study (Figures 10-12,
// Table II).
var RealisticSizes = []int{50, 100, 200, 400}

// Realistic reproduces the §IX experiment behind Figures 10 and 11 and
// Table II: workloads mixing CG, Jacobi and N-body (one third each),
// submitted at their maximum sizes on the 65-node machine, in fixed and
// flexible variants.
func Realistic(sizes []int, seed int64) []Comparison {
	var out []Comparison
	for _, n := range sizes {
		specs := workload.Generate(workload.Realistic(n, seed))
		out = append(out, runPair(realisticConfig(), specs))
	}
	return out
}

// realisticReport is Figures 10 and 11 and Table II with the two bar
// charts.
func realisticReport(cs []Comparison) Report {
	fig10 := gainText("Figure 10: workload execution times (gain on flexible bars)", cs,
		func(r *metrics.WorkloadResult) sim.Time { return r.Makespan }, Comparison.MakespanGain)
	fig11 := gainText("Figure 11: average job waiting time (gain on flexible bars)", cs,
		func(r *metrics.WorkloadResult) sim.Time { return r.AvgWait }, Comparison.WaitGain)
	rep := textReport(fig10, fig11, table2(cs))
	rep.Add(comparisonSVG("fig10", "Figure 10: workload execution times", cs, false))
	rep.Add(comparisonSVG("fig11", "Figure 11: average job waiting time", cs, true))
	return rep
}

// gainText is one sentence per workload size: the measure in fixed and
// flexible mode and the gain (Figures 10 and 11).
func gainText(title string, cs []Comparison, measure func(*metrics.WorkloadResult) sim.Time, gain func(Comparison) float64) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, c := range cs {
		fmt.Fprintf(&b, "%4d jobs: fixed %8.0f s | flexible %8.0f s | gain %.2f%%\n",
			c.Jobs, measure(c.Fixed).Seconds(), measure(c.Flexible).Seconds(), gain(c))
	}
	return b.String()
}

// table2 is Table II: the four aggregate measures for every workload
// size in fixed and flexible modes.
func table2(cs []Comparison) string {
	var b strings.Builder
	b.WriteString("Table II: summary of measures from all the workloads\n")
	fmt.Fprintf(&b, "%-32s", "")
	for _, c := range cs {
		fmt.Fprintf(&b, "%12dj-fix %12dj-flex", c.Jobs, c.Jobs)
	}
	b.WriteString("\n")
	row := func(name string, cell func(*metrics.WorkloadResult) string) {
		fmt.Fprintf(&b, "%-32s", name)
		for _, c := range cs {
			fmt.Fprintf(&b, "%17s %17s", cell(c.Fixed), cell(c.Flexible))
		}
		b.WriteString("\n")
	}
	row("Avg. resource utilization rate", func(r *metrics.WorkloadResult) string { return fmt.Sprintf("%.2f %%", r.UtilRate) })
	row("Avg. job waiting time", func(r *metrics.WorkloadResult) string { return secondsCell(r.AvgWait) })
	row("Avg. job execution time", func(r *metrics.WorkloadResult) string { return secondsCell(r.AvgExec) })
	row("Avg. job completion time", func(r *metrics.WorkloadResult) string { return secondsCell(r.AvgCompletion) })
	return b.String()
}
