package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Options are the inputs every study run shares.
type Options struct {
	// Quick runs the study's scaled-down workloads instead of the
	// paper's full dimensions.
	Quick bool
	Seed  int64
	// Patterns restricts the elastic and migration studies to these
	// arrival shapes (nil: each study's full sweep).
	Patterns []string
}

// size picks a study's -quick or full dimension.
func size[T any](o Options, quick, full T) T {
	if o.Quick {
		return quick
	}
	return full
}

// An Artifact is one file a study can write. Its extension decides
// where it lands: .svg charts go with the figures, everything else
// (CSV, JSON, Prometheus text) with the data.
type Artifact struct {
	Name  string
	Note  string // appended to the line announcing the written file
	Write func(io.Writer) error
}

// A Part is one piece of a Report: text for stdout, or an artifact.
type Part struct {
	Text     string
	Artifact *Artifact
}

// A Report is what a study produced, in emission order: text for the
// terminal interleaved with the artifacts it can write to disk.
type Report struct {
	Parts []Part
}

// Print appends text.
func (r *Report) Print(s string) { r.Parts = append(r.Parts, Part{Text: s}) }

// Add appends an artifact.
func (r *Report) Add(a Artifact) { r.Parts = append(r.Parts, Part{Artifact: &a}) }

// A Study is one entry of the registry: the -exp names that select it
// and how to run it. Each Run fixes its own full and -quick sizes.
type Study struct {
	Names []string
	Run   func(Options) (Report, error)
}

// Studies is the registry, in the order -exp all runs it: the paper's
// figures and tables first, then the extension studies.
var Studies = []Study{
	{[]string{"fig1"}, func(Options) (Report, error) {
		return textReport(Fig1Table(Fig1(Fig1Targets)).Text()), nil
	}},
	{[]string{"fig3"}, func(o Options) (Report, error) {
		cs := Fig3(size(o, []int{10, 25, 50}, Fig3Sizes), o.Seed)
		return comparisonReport("fig3", "Figure 3: fixed vs flexible (synchronous scheduling)",
			"Figure 3: fixed vs flexible workloads (sync)", cs), nil
	}},
	evolutionStudy("fig4", "Figure 4 (10-job workload)", EvoFig4),
	evolutionStudy("fig5", "Figure 5 (25-job workload)", EvoFig5),
	evolutionStudy("fig6", "Figure 6 (async 10-job workload)", EvoFig6),
	{[]string{"fig7"}, func(o Options) (Report, error) {
		cs := Fig7(size(o, []int{10, 25, 50}, Fig3Sizes), o.Seed)
		return comparisonReport("fig7", "Figure 7: fixed vs flexible (asynchronous scheduling)",
			"Figure 7: fixed vs flexible workloads (async)", cs), nil
	}},
	{[]string{"fig8"}, func(o Options) (Report, error) {
		return textReport(fig8Table(Fig8(size(o, 30, 100), o.Seed)).Text()), nil
	}},
	{[]string{"fig9"}, func(o Options) (Report, error) {
		cells := Fig9(size(o, []int{10, 25}, Fig9Sizes), Fig9Periods, o.Seed)
		return textReport(fig9Table(cells).Text()), nil
	}},
	{[]string{"fig10", "fig11", "table2"}, func(o Options) (Report, error) {
		return realisticReport(Realistic(size(o, []int{20, 50}, RealisticSizes), o.Seed)), nil
	}},
	evolutionStudy("fig12", "Figure 12 (50-job realistic workload)", EvoFig12),
	{[]string{"energy"}, func(o Options) (Report, error) {
		return energyReport(Energy(size(o, []int{20, 50}, EnergySizes), o.Seed)), nil
	}},
	{[]string{"powercap"}, func(o Options) (Report, error) {
		rows := PowerCap(size(o, 20, PowerCapJobs), size(o, []float64{0, 12000}, PowerCapLevels), o.Seed)
		return powerCapReport(rows), nil
	}},
	{[]string{"mixedfleet"}, func(o Options) (Report, error) {
		return mixedFleetReport(MixedFleet(size(o, 20, MixedFleetJobs), nil, o.Seed)), nil
	}},
	{[]string{"thermal"}, func(o Options) (Report, error) {
		row := Thermal(size(o, 20, ThermalJobs), o.Seed)
		return thermalReport(row, LadderSweep(size(o, 10, LadderJobs), o.Seed)), nil
	}},
	{[]string{"scale"}, func(o Options) (Report, error) {
		return scaleReport(Scale(size(o, ScaleQuickDims, ScaleDims), o.Seed)), nil
	}},
	{[]string{"elastic"}, func(o Options) (Report, error) {
		rows, err := Elastic(size(o, 40, ElasticJobs), o.Patterns, ElasticTargets, o.Seed)
		if err != nil {
			return Report{}, err
		}
		return elasticReport(rows), nil
	}},
	{[]string{"migration"}, func(o Options) (Report, error) {
		rows, err := Migration(size(o, 30, MigrationJobs), o.Patterns, o.Seed)
		if err != nil {
			return Report{}, err
		}
		return migrationReport(rows), nil
	}},
	{[]string{"faults"}, func(o Options) (Report, error) {
		return faultsReport(Faults(FaultJobs, FaultMTBFs, o.Seed)), nil
	}},
	{[]string{"telemetry"}, func(o Options) (Report, error) {
		return telemetryReport(Telemetry(size(o, 20, 50), o.Seed)), nil
	}},
	{[]string{"ablations"}, func(o Options) (Report, error) {
		jobs := size(o, 20, 50)
		return textReport(
			ablationTable("Ablation: moldable submissions (paper §X future work)", Moldable(jobs, o.Seed)).Text(),
			ablationTable("Ablation: resize factor", ResizeFactor(jobs, []int{2, 4}, o.Seed)).Text(),
			ablationTable("Ablation: policy modes", PolicyModes(jobs, o.Seed)).Text(),
		), nil
	}},
}

// Select returns the studies an -exp value names: every study for
// "all", otherwise the one entry carrying the name.
func Select(name string) ([]Study, error) {
	if name == "all" {
		return Studies, nil
	}
	names := []string{"all"}
	for _, s := range Studies {
		for _, n := range s.Names {
			if n == name {
				return []Study{s}, nil
			}
		}
		names = append(names, s.Names...)
	}
	return nil, fmt.Errorf("unknown experiment %q (want one of %s)", name, strings.Join(names, ", "))
}

// textReport is a report of text blocks, each followed by a blank line.
func textReport(blocks ...string) Report {
	var rep Report
	for _, b := range blocks {
		rep.Print(b + "\n")
	}
	return rep
}
