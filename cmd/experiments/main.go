// Command experiments regenerates every table and figure of the paper's
// evaluation — Figure 1, Figures 3–12 and Table II — plus the extension
// studies (energy, power capping, mixed fleets, thermals, scale,
// elasticity, migration, faults, telemetry, ablations). Each study is
// one entry of the experiments.Studies registry: -exp picks an entry by
// name, and the default runs them all in registry order. Each study
// runs the paper's full dimensions by default; -quick runs the
// scaled-down sizes the study declares next to them, for a fast smoke
// pass.
//
// Usage:
//
//	experiments [-exp all|NAME] [-quick] [-seed N] [-arrival diurnal|bursty] [-csv DIR] [-svg DIR]
//
// A study prints its tables on stdout and may produce artifacts:
// summary CSVs, power, temperature and evolution traces, telemetry
// exports and SVG charts. -svg DIR receives the .svg artifacts and
// -csv DIR all the others; each file written is announced on stdout.
// An unknown -exp name or -arrival shape is a usage error (exit 2).
// EXPERIMENTS.md describes what every study measures.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "study to run: all, or one study's name (fig1, fig3, ..., energy, faults, ...)")
	quick := flag.Bool("quick", false, "scaled-down workloads")
	seed := flag.Int64("seed", experiments.DefaultSeed, "workload seed")
	arrival := flag.String("arrival", "", "restrict the elastic/migration studies to one arrival shape (diurnal or bursty; default: sweep both)")
	csvDir := flag.String("csv", "", "directory to write the data artifacts to (summary CSVs, traces, telemetry exports)")
	svgDir := flag.String("svg", "", "directory to write figures as SVG charts")
	flag.Parse()
	if flag.NArg() > 0 {
		usageErr(fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	studies, err := experiments.Select(*exp)
	if err != nil {
		usageErr(err)
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed}
	if *arrival != "" {
		opts.Patterns = []string{*arrival}
	}

	for _, s := range studies {
		rep, err := s.Run(opts)
		if err != nil {
			usageErr(err)
		}
		for _, p := range rep.Parts {
			a := p.Artifact
			if a == nil {
				fmt.Print(p.Text)
				continue
			}
			dir := *csvDir
			if filepath.Ext(a.Name) == ".svg" {
				dir = *svgDir
			}
			if dir == "" {
				continue
			}
			path := filepath.Join(dir, a.Name)
			if err := writeFile(path, a); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s%s\n", path, a.Note)
		}
	}
}

// usageErr reports a bad flag value with the flag usage and exits.
func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	flag.Usage()
	os.Exit(2)
}

// writeFile writes one artifact to path.
func writeFile(path string, a *experiments.Artifact) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
