package experiments

import (
	"strings"
	"testing"
)

func TestPowerCapSweepShape(t *testing.T) {
	rows := PowerCap(15, []float64{0, 12000}, DefaultSeed)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	uncapped, capped := rows[0], rows[1]

	// The uncapped run never throttles and matches no-cap behavior.
	if uncapped.Rigid.ThrottledS != 0 || uncapped.Malleable.ThrottledS != 0 {
		t.Fatalf("uncapped run throttled: rigid %.1f s, malleable %.1f s",
			uncapped.Rigid.ThrottledS, uncapped.Malleable.ThrottledS)
	}
	// The cap binds: no power sample may exceed it, in either regime.
	for name, run := range map[string]PowerCapRun{
		"rigid": capped.Rigid, "malleable": capped.Malleable,
	} {
		for _, s := range run.Res.Power.Samples {
			if s.PowerW > capped.CapW+1e-6 {
				t.Fatalf("%s: draw %.1f W at %v exceeds the %.0f W cap",
					name, s.PowerW, s.T, capped.CapW)
			}
		}
		if run.Res.Jobs != 15 {
			t.Fatalf("%s: %d jobs completed under the cap", name, run.Res.Jobs)
		}
	}
	// The uncapped workload actually needs more than 12 kW at its peak —
	// otherwise the capped comparison is vacuous.
	if uncapped.Rigid.PeakW <= capped.CapW {
		t.Fatalf("uncapped peak %.0f W never crosses the %.0f W cap",
			uncapped.Rigid.PeakW, capped.CapW)
	}
	// Capping trades time for watts: the capped makespan cannot beat the
	// uncapped one.
	if capped.Rigid.Res.Makespan < uncapped.Rigid.Res.Makespan {
		t.Fatalf("capped rigid makespan %v beats uncapped %v",
			capped.Rigid.Res.Makespan, uncapped.Rigid.Res.Makespan)
	}
	if out := powerCapTable(rows).Text(); !strings.Contains(out, "malThr(s)") {
		t.Fatal("format broken")
	}
}

func TestPowerCapDeterministic(t *testing.T) {
	a := PowerCap(10, []float64{12000}, DefaultSeed)
	b := PowerCap(10, []float64{12000}, DefaultSeed)
	if a[0].Rigid.Res.Makespan != b[0].Rigid.Res.Makespan ||
		a[0].Malleable.ThrottledS != b[0].Malleable.ThrottledS {
		t.Fatalf("power-cap experiment not deterministic: %+v vs %+v", a[0], b[0])
	}
}
