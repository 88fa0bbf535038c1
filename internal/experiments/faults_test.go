package experiments

import (
	"strings"
	"sync"
	"testing"
)

// The fault study is deterministic and moderately expensive; the golden
// and the acceptance tests share one full-size run.
var faultsOnce = sync.Once{}
var faultRows []FaultRow

func faultStudy() []FaultRow {
	faultsOnce.Do(func() {
		faultRows = Faults(FaultJobs, FaultMTBFs, DefaultSeed)
	})
	return faultRows
}

// TestFaultsCSVGolden pins the -exp faults summary artifact byte for
// byte (regenerate with -update).
func TestFaultsCSVGolden(t *testing.T) {
	var b strings.Builder
	if err := faultsSummary(faultStudy()).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "faults_summary.csv", []byte(b.String()))
}

// TestFaultsMalleableBeatsRigidRestart pins the study's headline claim:
// at EVERY swept MTBF, shrink-to-survive loses less work to the
// identical failure schedule than restarting rigid jobs from scratch —
// and never needs a requeue the rigid path is forced into.
func TestFaultsMalleableBeatsRigidRestart(t *testing.T) {
	rows := faultStudy()
	if len(rows) != len(FaultMTBFs) {
		t.Fatalf("%d rows for %d MTBF levels", len(rows), len(FaultMTBFs))
	}
	for _, r := range rows {
		byRegime := map[string]FaultRun{}
		for _, run := range r.Runs {
			byRegime[run.Regime] = run
		}
		rigid, mall := byRegime["rigid"], byRegime["malleable"]
		if rigid.Res == nil || mall.Res == nil {
			t.Fatalf("MTBF %v: missing regimes in %v", r.MTBF, r.Runs)
		}
		if mall.Stats.LostWorkS >= rigid.Stats.LostWorkS {
			t.Errorf("MTBF %v: malleable lost %.1f s, rigid lost %.1f s — shrink-to-survive must win",
				r.MTBF, mall.Stats.LostWorkS, rigid.Stats.LostWorkS)
		}
		// The injector's schedule is workload-independent: every regime
		// must face the same crash count at a given MTBF.
		for _, run := range r.Runs {
			if run.Stats.Failures != rigid.Stats.Failures {
				t.Errorf("MTBF %v: regime %s saw %d failures, rigid saw %d — the schedule must be shared",
					r.MTBF, run.Regime, run.Stats.Failures, rigid.Stats.Failures)
			}
		}
		if mall.Stats.Requeues != 0 {
			t.Errorf("MTBF %v: malleable run requeued %d times", r.MTBF, mall.Stats.Requeues)
		}
	}
	if t.Failed() {
		t.Logf("study:\n%s", faultsText(rows))
	}
}

// TestFaultsCheckpointProtectsRigid asserts the middle regime earns its
// keep in aggregate: over the whole sweep, periodic checkpoints strictly
// reduce the rigid path's lost work.
func TestFaultsCheckpointProtectsRigid(t *testing.T) {
	var rigid, ckpt float64
	for _, r := range faultStudy() {
		for _, run := range r.Runs {
			switch run.Regime {
			case "rigid":
				rigid += run.Stats.LostWorkS
			case "rigid+ckpt":
				ckpt += run.Stats.LostWorkS
			}
		}
	}
	if ckpt >= rigid {
		t.Fatalf("checkpointed rigid lost %.1f s vs %.1f s unprotected: checkpoints must help across the sweep",
			ckpt, rigid)
	}
}
