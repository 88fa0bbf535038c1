package experiments

import (
	"strings"
	"testing"
)

func TestEnergyExperimentShape(t *testing.T) {
	rows := Energy([]int{20}, DefaultSeed)
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	for name, res := range map[string]float64{
		"rigid": r.Rigid.EnergyJ, "malleable": r.Malleable.EnergyJ, "aware": r.Aware.EnergyJ,
	} {
		if res <= 0 {
			t.Fatalf("%s run reports %.1f J", name, res)
		}
	}
	// The paper's energy claim, quantified: malleability alone saves
	// energy (shorter makespan), and the energy-aware policy saves more
	// (freed nodes sleep).
	if r.Malleable.EnergyJ >= r.Rigid.EnergyJ {
		t.Fatalf("malleable energy %.0f J not below rigid %.0f J",
			r.Malleable.EnergyJ, r.Rigid.EnergyJ)
	}
	if r.Aware.EnergyJ >= r.Malleable.EnergyJ {
		t.Fatalf("energy-aware %.0f J not below plain malleable %.0f J",
			r.Aware.EnergyJ, r.Malleable.EnergyJ)
	}
	// The energy-aware run trades makespan for watts: its mean draw must
	// undercut Algorithm 1's.
	if r.Aware.AvgPowerW >= r.Malleable.AvgPowerW {
		t.Fatalf("aware mean draw %.0f W not below malleable %.0f W",
			r.Aware.AvgPowerW, r.Malleable.AvgPowerW)
	}
	// Sleep must actually engage: at some point the rigid run's draw
	// falls below the all-idle floor (65 nodes × 120 W).
	floor := 65 * 120.0
	sawSleep := false
	for _, s := range r.Rigid.Power.Samples {
		if s.PowerW < floor {
			sawSleep = true
			break
		}
	}
	if !sawSleep {
		t.Fatal("rigid run never dropped below the all-idle power floor; sleep never engaged")
	}
	if out := energyTables(rows); !strings.Contains(out, "again%") {
		t.Fatal("format broken")
	}
}

func TestEnergyExperimentDeterministic(t *testing.T) {
	a := Energy([]int{20}, DefaultSeed)
	b := Energy([]int{20}, DefaultSeed)
	for i := range a {
		if a[i].Rigid.EnergyJ != b[i].Rigid.EnergyJ ||
			a[i].Malleable.EnergyJ != b[i].Malleable.EnergyJ ||
			a[i].Aware.EnergyJ != b[i].Aware.EnergyJ {
			t.Fatalf("energy experiment not deterministic: %+v vs %+v", a[i], b[i])
		}
	}
}
