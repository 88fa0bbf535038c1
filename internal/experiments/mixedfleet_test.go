package experiments

import (
	"strings"
	"testing"
)

// TestMixedFleetClassAwareWinsAtEvenSplit pins the headline claim of the
// mixed-fleet study: at the 50:50 fleet ratio, class-aware placement
// beats class-blind malleable scheduling on makespan AND energy for the
// default experiment workload.
func TestMixedFleetClassAwareWinsAtEvenSplit(t *testing.T) {
	rows := MixedFleet(MixedFleetJobs, []float64{0.5}, DefaultSeed)
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.FastNodes+r.SlowNodes != 65 {
		t.Fatalf("fleet %d:%d does not cover the 65-node testbed", r.FastNodes, r.SlowNodes)
	}
	if g := r.MakespanGainPct(); g <= 0 {
		t.Errorf("class-aware makespan gain %.2f%% over class-blind malleable, want > 0", g)
	}
	if g := r.EnergyGainPct(); g <= 0 {
		t.Errorf("class-aware energy gain %.2f%% over class-blind malleable, want > 0", g)
	}
	// Malleability itself must still pay off against the rigid baseline,
	// otherwise the comparison above is vacuous.
	if r.Malleable.Res.Makespan >= r.Rigid.Res.Makespan {
		t.Errorf("malleable makespan %v not below rigid %v", r.Malleable.Res.Makespan, r.Rigid.Res.Makespan)
	}
}

func TestMixedFleetSweepShape(t *testing.T) {
	rows := MixedFleet(20, nil, DefaultSeed)
	if len(rows) != len(MixedFleetFastShares) {
		t.Fatalf("%d rows, want %d", len(rows), len(MixedFleetFastShares))
	}
	for _, r := range rows {
		if r.FastNodes <= 0 || r.SlowNodes <= 0 {
			t.Fatalf("degenerate fleet %d:%d", r.FastNodes, r.SlowNodes)
		}
		for name, run := range map[string]MixedFleetRun{
			"rigid": r.Rigid, "malleable": r.Malleable, "class-aware": r.ClassAware,
		} {
			if run.Res.Makespan <= 0 {
				t.Fatalf("%s run at %d:%d has no makespan", name, r.FastNodes, r.SlowNodes)
			}
			if run.Res.EnergyJ <= 0 {
				t.Fatalf("%s run at %d:%d has no energy", name, r.FastNodes, r.SlowNodes)
			}
			if run.FastJ <= 0 || run.SlowJ < 0 {
				t.Fatalf("%s run at %d:%d has a broken class energy split (%f/%f)", name, r.FastNodes, r.SlowNodes, run.FastJ, run.SlowJ)
			}
		}
		// The generated demands expose some jobs to the efficiency class
		// in every regime at these ratios.
		if r.ClassAware.SlowTouched == 0 && r.Malleable.SlowTouched == 0 {
			t.Errorf("no job ever touched the efficiency class at %d:%d", r.FastNodes, r.SlowNodes)
		}
	}
	out := mixedFleetTables(rows)
	for _, want := range []string{"fast:slow", "mkGain", "enGain", "slow-class exposure"} {
		if !strings.Contains(out, want) {
			t.Errorf("mixed-fleet tables missing %q", want)
		}
	}
}
