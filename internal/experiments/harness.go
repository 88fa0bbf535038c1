// Package experiments contains one driver per table and figure of the
// paper's evaluation (§VIII preliminary study and §IX experimental
// results), each runnable from the experiments command or the benchmark
// suite. Drivers accept workload sizes so benches can run scaled-down
// versions; the command runs the paper's full dimensions.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DefaultSeed keeps every experiment deterministic ("a fixed seed",
// §IX-A).
const DefaultSeed = 20170814 // ICPP 2017 began August 14

// palette colors a chart's series in order: blue, red, green.
var palette = []string{"#1f77b4", "#d62728", "#2ca02c"}

// regimeNames labels the rigid, malleable and class-aware runs of the
// mixed-fleet and thermal studies, in report order.
var regimeNames = []string{"rigid", "malleable", "classaware"}

// Comparison is one fixed-vs-flexible workload pair.
type Comparison struct {
	Jobs     int
	Fixed    *metrics.WorkloadResult
	Flexible *metrics.WorkloadResult
}

// MakespanGain is the paper's "gain": percent reduction of the workload
// execution time.
func (c Comparison) MakespanGain() float64 {
	return metrics.GainPct(c.Fixed.Makespan.Seconds(), c.Flexible.Makespan.Seconds())
}

// WaitGain is the percent reduction of the average job waiting time.
func (c Comparison) WaitGain() float64 {
	return metrics.GainPct(c.Fixed.AvgWait.Seconds(), c.Flexible.AvgWait.Seconds())
}

// UtilReduction is the drop in average resource-utilization rate
// (percentage points); Table II row 1.
func (c Comparison) UtilReduction() float64 {
	return c.Fixed.UtilRate - c.Flexible.UtilRate
}

// runPair executes the same workload in fixed and flexible mode.
func runPair(cfg core.Config, specs []workload.Spec) Comparison {
	fixed := core.RunWorkload(cfg, workload.SetFlexible(specs, false))
	flex := core.RunWorkload(cfg, workload.SetFlexible(specs, true))
	return Comparison{Jobs: len(specs), Fixed: fixed, Flexible: flex}
}

// preliminaryConfig is the §VIII testbed: 20 nodes, FS jobs.
func preliminaryConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes = 20
	return cfg
}

// realisticConfig is the §IX testbed: the full 65-node machine.
func realisticConfig() core.Config {
	return core.DefaultConfig()
}

// comparisonTable is the gain table behind the bar labels of Figures
// 3, 7 and 10.
func comparisonTable(title string, cs []Comparison) *Table {
	t := &Table{Title: title, Cols: []Col{
		{"jobs", 8}, {"fixed(s)", 14}, {"flexible(s)", 14}, {"gain%", 8},
		{"waitF(s)", 10}, {"waitX(s)", 10}, {"wgain%", 8},
	}}
	for _, c := range cs {
		t.Row(fmt.Sprint(c.Jobs), num(c.Fixed.Makespan.Seconds(), 0), num(c.Flexible.Makespan.Seconds(), 0),
			num(c.MakespanGain(), 2), num(c.Fixed.AvgWait.Seconds(), 0), num(c.Flexible.AvgWait.Seconds(), 0),
			num(c.WaitGain(), 2))
	}
	return t
}

// comparisonReport is a fixed-vs-flexible study's gain table with its
// bar chart.
func comparisonReport(name, title, svgTitle string, cs []Comparison) Report {
	var rep Report
	rep.Print(comparisonTable(title, cs).Text())
	rep.Add(comparisonSVG(name, svgTitle, cs, false))
	rep.Print("\n")
	return rep
}

// comparisonSVG charts fixed vs flexible bars per workload size; waits
// selects the waiting-time series instead of makespans.
func comparisonSVG(name, title string, cs []Comparison, waits bool) Artifact {
	var groups []metrics.BarGroup
	for _, c := range cs {
		fix, flex := c.Fixed.Makespan.Seconds(), c.Flexible.Makespan.Seconds()
		if waits {
			fix, flex = c.Fixed.AvgWait.Seconds(), c.Flexible.AvgWait.Seconds()
		}
		groups = append(groups, metrics.BarGroup{Label: fmt.Sprintf("%d jobs", c.Jobs), Values: []float64{fix, flex}})
	}
	yLabel := "execution time (s)"
	if waits {
		yLabel = "avg waiting time (s)"
	}
	return Artifact{Name: name + ".svg", Write: func(w io.Writer) error {
		return metrics.WriteBarsSVG(w, title, yLabel,
			[]string{"fixed", "flexible"}, palette[:2], groups)
	}}
}

// secondsCell formats a duration in whole seconds for tables.
func secondsCell(t sim.Time) string { return fmt.Sprintf("%.2f s.", t.Seconds()) }
