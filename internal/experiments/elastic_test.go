package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/slurm"
	"repro/internal/workload"
)

// The elastic study is deterministic and moderately expensive, and both
// the golden and the acceptance test want the same full-size run.
var elasticOnce = sync.Once{}
var elasticRows []ElasticRow

func elasticStudy() []ElasticRow {
	elasticOnce.Do(func() {
		var err error
		elasticRows, err = Elastic(ElasticJobs, nil, ElasticTargets, DefaultSeed)
		if err != nil {
			panic(err)
		}
	})
	return elasticRows
}

// TestElasticRejectsUnknownPattern is the regression test for the CLI
// panic: a mistyped -arrival value must come back as an error — listing
// the valid shapes — from both the params builder and the study, never
// as a panic from deep inside the generator.
func TestElasticRejectsUnknownPattern(t *testing.T) {
	if _, err := elasticParams(10, "hourly", DefaultSeed); err == nil {
		t.Fatal("elasticParams accepted pattern \"hourly\"")
	} else if !strings.Contains(err.Error(), "diurnal") {
		t.Fatalf("error %q does not list the valid patterns", err)
	}
	if _, err := Elastic(10, []string{"hourly"}, ElasticTargets, DefaultSeed); err == nil {
		t.Fatal("Elastic accepted pattern \"hourly\"")
	}
}

// TestElasticCSVGolden pins the -exp elastic summary artifact byte for
// byte (regenerate with -update).
func TestElasticCSVGolden(t *testing.T) {
	var b strings.Builder
	if err := elasticSummary(elasticStudy()).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "elastic_summary.csv", []byte(b.String()))
}

// TestElasticBeatsStaticDiurnal pins the study's headline claim: on the
// diurnal workload, at least one adapt target must beat the static
// fleet on energy at equal-or-better p95 queue wait. (On the current
// seed every target does; the test demands only the claim itself, so a
// future retune has room to move individual targets.)
func TestElasticBeatsStaticDiurnal(t *testing.T) {
	for _, row := range elasticStudy() {
		if row.Pattern != "diurnal" {
			continue
		}
		for i, run := range row.Runs {
			if run.Res.EnergyJ < row.Static.EnergyJ && run.Res.P95Wait <= row.Static.P95Wait {
				t.Logf("target=%v: energy %.0f kJ vs static %.0f kJ (%.2f%% gain), p95 %v vs %v",
					run.TargetWait, run.Res.EnergyJ/1e3, row.Static.EnergyJ/1e3,
					row.EnergyGainPct(i), run.Res.P95Wait, row.Static.P95Wait)
				return
			}
		}
		t.Fatalf("no diurnal adapt target beats the static fleet on energy at equal-or-better p95:\n%s",
			elasticText([]ElasticRow{row}))
	}
	t.Fatal("no diurnal row in the elastic study")
}

// TestElasticFullEnvelopeNeverShrinks guards the degenerate envelope:
// with Min spanning the whole cluster the adapt loop has nothing to
// retire, so a run must finish with zero decommissions. (Boots may
// still occur — reservation wake-ahead pre-boots sleeping nodes
// regardless of envelope, and counts toward the boot total.)
func TestElasticFullEnvelopeNeverShrinks(t *testing.T) {
	params, err := elasticParams(25, "diurnal", DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	specs := workload.SetFlexible(workload.Generate(params), false)
	el := &slurm.ElasticConfig{Min: 1 << 20} // clamped to the cluster size
	res, _, decomms := runElastic(elasticConfig(el), specs)
	if decomms != 0 {
		t.Fatalf("full-envelope run decommissioned %d nodes", decomms)
	}
	if res.Jobs != 25 {
		t.Fatalf("full-envelope run completed %d of 25 jobs", res.Jobs)
	}
}
