package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// checkGolden compares got against the checked-in golden file
// byte-for-byte, or rewrites it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/experiments -run Golden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden copy (%d vs %d bytes).\n"+
			"The experiment pipeline is expected to be byte-for-byte deterministic; if the\n"+
			"change is intentional, regenerate with -update and review the diff.", name, len(got), len(want))
	}
}

func powerCSV(t *testing.T, tr *metrics.PowerTrace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := metrics.WritePowerCSV(&b, tr); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestEnergyCSVGolden pins the -exp energy CSV output (the power traces
// the experiments command dumps with -csv) byte-for-byte against golden
// files, at the -quick workload size. Any scheduler, policy, energy or
// formatting refactor that shifts a single sample shows up here.
func TestEnergyCSVGolden(t *testing.T) {
	rows := Energy([]int{20}, DefaultSeed)
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	for suffix, res := range map[string]*metrics.WorkloadResult{
		"rigid": r.Rigid, "malleable": r.Malleable, "aware": r.Aware,
	} {
		checkGolden(t, "energy_20j_"+suffix+"_power.csv", powerCSV(t, res.Power))
	}
	checkGolden(t, "energy_20j_table.txt", []byte(energyTables(rows)))
}

// TestPowerCapCSVGolden pins the -exp powercap CSV output the same way,
// for the uncapped run and one capped level.
func TestPowerCapCSVGolden(t *testing.T) {
	rows := PowerCap(20, []float64{0, 12000}, DefaultSeed)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		name := "powercap_none"
		if r.CapW > 0 {
			name = "powercap_12000w"
		}
		checkGolden(t, name+"_rigid_power.csv", powerCSV(t, r.Rigid.Res.Power))
		checkGolden(t, name+"_malleable_power.csv", powerCSV(t, r.Malleable.Res.Power))
	}
	checkGolden(t, "powercap_20j_table.txt", []byte(powerCapTable(rows).Text()))
}
