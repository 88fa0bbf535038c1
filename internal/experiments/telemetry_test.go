package experiments

import (
	"bytes"
	"testing"
)

// telemetryExports renders the run's three artifacts.
func telemetryExports(t *testing.T, r *TelemetryRun) (prom, csv, trace []byte) {
	t.Helper()
	var p, c, tr bytes.Buffer
	if err := r.Sink.Reg.WriteProm(&p); err != nil {
		t.Fatal(err)
	}
	if err := r.Sink.Reg.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := r.Sink.Trace.WriteJSON(&tr); err != nil {
		t.Fatal(err)
	}
	return p.Bytes(), c.Bytes(), tr.Bytes()
}

// TestTelemetryGolden pins the instrumented 50-job realistic run: two
// identical runs must export byte-identical artifacts, and those bytes
// are pinned against golden copies. This is the enabled-path analogue
// of TestSchedulerDeterminismGolden — any scheduler, energy or
// telemetry change that shifts a single counter, span or sample shows
// up as a golden diff.
func TestTelemetryGolden(t *testing.T) {
	r1 := Telemetry(50, DefaultSeed)
	r2 := Telemetry(50, DefaultSeed)
	prom1, csv1, trace1 := telemetryExports(t, r1)
	prom2, csv2, trace2 := telemetryExports(t, r2)
	if !bytes.Equal(prom1, prom2) || !bytes.Equal(csv1, csv2) {
		t.Fatal("registry exports differ across identical runs")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("trace exports differ across identical runs")
	}
	if r1.TotalEvents != r2.TotalEvents {
		t.Fatalf("event counts differ: %d vs %d", r1.TotalEvents, r2.TotalEvents)
	}

	checkGolden(t, "telemetry_50j_metrics.prom", prom1)
	checkGolden(t, "telemetry_50j_trace.json", trace1)
	checkGolden(t, "telemetry_50j_table.txt", []byte(telemetryText(r1)))
}
