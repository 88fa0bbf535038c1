package experiments

import (
	"bytes"
	"testing"
)

// The study's headline claims, at the -quick size: sustained load
// crosses the envelope (throttle events exist), the stretch it costs a
// rigid workload is material, and malleability recovers it — flexible
// regimes reshape around the machines the physics slowed down.
func TestThermalStretchRecoveredByMalleability(t *testing.T) {
	row := Thermal(20, DefaultSeed)
	if row.Rigid.ThrottleEvents == 0 || row.Malleable.ThrottleEvents == 0 || row.ClassAware.ThrottleEvents == 0 {
		t.Fatalf("a regime never crossed the envelope: rigid %d, malleable %d, classaware %d throttles",
			row.Rigid.ThrottleEvents, row.Malleable.ThrottleEvents, row.ClassAware.ThrottleEvents)
	}
	if row.Rigid.RestoreEvents == 0 {
		t.Fatal("no thermal restore: throttled nodes never cooled back")
	}
	if s := row.Rigid.StretchPct(); s < 5 {
		t.Fatalf("rigid thermal stretch %.2f%%, want a material slowdown (≥5%%)", s)
	}
	if ms, rs := row.Malleable.StretchPct(), row.Rigid.StretchPct(); ms >= rs {
		t.Fatalf("malleable stretch %.2f%% does not recover any of rigid's %.2f%%", ms, rs)
	}
	if row.Rigid.ThermalNodeSec <= 0 {
		t.Fatal("no thermal_throttled_s accounted")
	}
	if row.Rigid.PeakC < 90 {
		t.Fatalf("peak temperature %.1f °C never approached the 95 °C envelope", row.Rigid.PeakC)
	}
}

// Deep rungs beat the single shallow S-state on energy for sparse
// loads: the ladder spends long gaps at the 4 W deep state instead of
// the 9 W suspend, and the extra sleep descents prove nodes actually
// walked it.
func TestLadderBeatsSingleSStateOnEnergy(t *testing.T) {
	runs := LadderSweep(10, DefaultSeed)
	if len(runs) != 3 {
		t.Fatalf("%d runs", len(runs))
	}
	s0, ladder := runs[0], runs[2]
	if s0.Name != "single-s0" || ladder.Name != "ladder" {
		t.Fatalf("unexpected run order: %s, %s", s0.Name, ladder.Name)
	}
	if ladder.Res.EnergyJ >= s0.Res.EnergyJ {
		t.Fatalf("ladder energy %.0f J does not beat the single-S0 baseline's %.0f J",
			ladder.Res.EnergyJ, s0.Res.EnergyJ)
	}
	if ladder.SleepSteps <= s0.SleepSteps {
		t.Fatalf("ladder logged %d sleep steps vs the baseline's %d — nodes never descended",
			ladder.SleepSteps, s0.SleepSteps)
	}
}

// TestThermalCSVGolden pins the -exp thermal summary CSV and tables
// byte-for-byte at the -quick sizes, alongside the energy and powercap
// goldens: a re-timed thermal crossing or ladder descent shows up here.
func TestThermalCSVGolden(t *testing.T) {
	row := Thermal(20, DefaultSeed)
	ladders := LadderSweep(10, DefaultSeed)
	var b bytes.Buffer
	if err := thermalSummary(row, ladders).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "thermal_20j_summary.csv", b.Bytes())
	checkGolden(t, "thermal_20j_table.txt", []byte(thermalTable(row).Text()+ladderTable(ladders).Text()))
}
