package experiments

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestFig1ShapeHolds(t *testing.T) {
	rows := Fig1([]int{12, 24, 48})
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]Fig1Row{}
	for _, r := range rows {
		byKey[r.Mechanism+string(rune('0'+r.To/12))] = r
	}
	for _, to := range []int{12, 24, 48} {
		dmr := byKey["DMR"+string(rune('0'+to/12))]
		cr := byKey["C/R"+string(rune('0'+to/12))]
		factor := float64(cr.Spawning) / float64(dmr.Spawning)
		// The paper reports 31x-77x; require the same order of magnitude.
		if factor < 10 {
			t.Fatalf("48→%d spawn factor %.1fx, want C/R ≥ 10x slower", to, factor)
		}
		if factor > 300 {
			t.Fatalf("48→%d spawn factor %.1fx implausibly high", to, factor)
		}
	}
	// The paper's factors increase with the target size.
	f12 := float64(byKey["C/R1"].Spawning) / float64(byKey["DMR1"].Spawning)
	f48 := float64(byKey["C/R4"].Spawning) / float64(byKey["DMR4"].Spawning)
	if f48 <= f12 {
		t.Fatalf("factor ordering: 48-48 (%.1fx) should exceed 48-12 (%.1fx)", f48, f12)
	}
	out := Fig1Table(rows).Text()
	if !strings.Contains(out, "spawn factor") {
		t.Fatal("formatting lost the factors")
	}
}

func TestFig3SmallSizesGain(t *testing.T) {
	cs := Fig3([]int{10, 25}, DefaultSeed)
	if len(cs) != 2 {
		t.Fatalf("%d comparisons", len(cs))
	}
	for _, c := range cs {
		if c.Flexible.Resizes == 0 {
			t.Fatalf("%d-job flexible run never resized", c.Jobs)
		}
		if c.MakespanGain() < -2 {
			t.Fatalf("%d jobs: flexible clearly slower (gain %.2f%%)", c.Jobs, c.MakespanGain())
		}
	}
}

func TestFig8MoreFlexibleIsFaster(t *testing.T) {
	rs := Fig8(30, DefaultSeed)
	if len(rs) != 5 {
		t.Fatalf("%d ratios", len(rs))
	}
	allFixed := rs[0].Result.Makespan
	allFlex := rs[4].Result.Makespan
	if allFlex > allFixed {
		t.Fatalf("100%% flexible (%v) slower than 0%% (%v)", allFlex, allFixed)
	}
	if out := fig8Table(rs).Text(); !strings.Contains(out, "100% flexible") {
		t.Fatal("format broken")
	}
}

func TestFig9InhibitorReducesOverhead(t *testing.T) {
	cells := Fig9([]int{10}, []sim.Time{0, 5 * sim.Second}, DefaultSeed)
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	// With ~2s steps, both runs complete; the inhibitor run must not be
	// dramatically worse than plain flexible.
	if cells[1].Flex.Makespan > cells[0].Flex.Makespan*2 {
		t.Fatalf("inhibitor run blew up: %v vs %v", cells[1].Flex.Makespan, cells[0].Flex.Makespan)
	}
	if out := fig9Table(cells).Text(); !strings.Contains(out, "Sched 5") {
		t.Fatal("format broken")
	}
}

func TestRealisticSmallShape(t *testing.T) {
	cs := Realistic([]int{20}, DefaultSeed)
	c := cs[0]
	// Table II shapes, scaled down: utilization and waits drop, per-job
	// execution time grows.
	if g := c.MakespanGain(); g <= 0 {
		t.Fatalf("flexible realistic workload gained %.2f%%, want > 0", g)
	}
	if c.Flexible.AvgWait >= c.Fixed.AvgWait {
		t.Fatalf("wait did not drop: %v vs %v", c.Flexible.AvgWait, c.Fixed.AvgWait)
	}
	if c.Flexible.AvgExec <= c.Fixed.AvgExec {
		t.Fatalf("flexible exec time should grow (jobs run shrunk): %v vs %v",
			c.Flexible.AvgExec, c.Fixed.AvgExec)
	}
	if c.Flexible.UtilRate >= c.Fixed.UtilRate {
		t.Fatalf("utilization rate should drop: %.2f vs %.2f",
			c.Flexible.UtilRate, c.Fixed.UtilRate)
	}
	var out strings.Builder
	for _, p := range realisticReport(cs).Parts {
		out.WriteString(p.Text)
	}
	for _, want := range []string{"Figure 10: workload execution times", "Figure 11: average job waiting time",
		"20 jobs: fixed", "Avg. job completion time"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("realistic report lost %q:\n%s", want, out.String())
		}
	}
}

func TestFig12NarrativeHolds(t *testing.T) {
	// Pin the paper's §IX-B story about the 50-job realistic workload
	// to the actual traces.
	fixed, flex := Evolution(EvoFig12, DefaultSeed)

	// "These results indicate that the flexible workloads reduce the
	// allocation of nodes around 30%."
	if fixed.UtilRate < 90 {
		t.Fatalf("fixed utilization %.1f%%, want near-full", fixed.UtilRate)
	}
	if flex.UtilRate > 80 {
		t.Fatalf("flexible utilization %.1f%%, want the paper's reduced allocation", flex.UtilRate)
	}

	// "There are 5 jobs in execution which allocate 40 nodes. The next
	// eligible job pending in the queue needs 32 nodes to start": the
	// flexible trace must show a sustained plateau with ~40 allocated
	// nodes while jobs still pend.
	plateau := 0.0
	samples := flex.Trace.Samples
	for i := 1; i < len(samples); i++ {
		prev := samples[i-1]
		if prev.Alloc >= 33 && prev.Alloc <= 48 && prev.Pending > 0 {
			plateau += (samples[i].T - prev.T).Seconds()
		}
	}
	if plateau < flex.Makespan.Seconds()*0.15 {
		t.Fatalf("no sustained mid-allocation plateau: %.0fs of %.0fs", plateau, flex.Makespan.Seconds())
	}

	// "At the beginning of the trace the throughput of the fixed
	// workload is higher ... as soon as they start to finish, the
	// throughput experiences a boost": flexible must end first with all
	// jobs done.
	if flex.Makespan >= fixed.Makespan {
		t.Fatal("flexible did not finish first")
	}
	last := flex.Trace.Samples[len(flex.Trace.Samples)-1]
	if last.Completed != 50 {
		t.Fatalf("flexible completed %d of 50", last.Completed)
	}
	// "More jobs running concurrently" (top chart): peak concurrency
	// must exceed the fixed run's.
	maxRun := func(tr *metricsTrace) int {
		m := 0
		for _, s := range tr.Samples {
			if s.Running > m {
				m = s.Running
			}
		}
		return m
	}
	if maxRun(flex.Trace) <= maxRun(fixed.Trace) {
		t.Fatalf("flexible peak concurrency %d not above fixed %d",
			maxRun(flex.Trace), maxRun(fixed.Trace))
	}
}

// metricsTrace aliases the metrics type for the helper above.
type metricsTrace = metrics.Trace

func TestFig4NarrativeNearFullAllocation(t *testing.T) {
	// "Figure 4 reports an almost-full allocation of resources during
	// the flexible execution."
	_, flex := Evolution(EvoFig4, DefaultSeed)
	fullTime := 0.0
	samples := flex.Trace.Samples
	for i := 1; i < len(samples); i++ {
		if samples[i-1].Alloc >= 18 { // of 20 nodes
			fullTime += (samples[i].T - samples[i-1].T).Seconds()
		}
	}
	if frac := fullTime / flex.Makespan.Seconds(); frac < 0.5 {
		t.Fatalf("near-full allocation only %.0f%% of the flexible run", frac*100)
	}
}

func TestEvolutionTracesProduced(t *testing.T) {
	fixed, flex := Evolution(EvoFig4, DefaultSeed)
	if len(fixed.Trace.Samples) == 0 || len(flex.Trace.Samples) == 0 {
		t.Fatal("traces empty")
	}
	// Completed counters must end at the workload size.
	if got := fixed.Trace.Samples[len(fixed.Trace.Samples)-1].Completed; got != 10 {
		t.Fatalf("fixed trace ends with %d completed", got)
	}
}

func TestMoldableAblationRuns(t *testing.T) {
	rows := Moldable(12, DefaultSeed)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[2].Result.Makespan > rows[0].Result.Makespan*2 {
		t.Fatal("moldable run pathological")
	}
	if out := ablationTable("moldable", rows).Text(); !strings.Contains(out, "flexible+moldable") {
		t.Fatal("format broken")
	}
}

func TestResizeFactorAblationRuns(t *testing.T) {
	rows := ResizeFactor(10, []int{2, 4}, DefaultSeed)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Result.Jobs != 10 {
			t.Fatalf("row %s ran %d jobs", r.Name, r.Result.Jobs)
		}
	}
}

func TestPolicyModesAblation(t *testing.T) {
	rows := PolicyModes(12, DefaultSeed)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Wide optimization should never hurt the makespan badly.
	if rows[0].Result.Makespan > rows[1].Result.Makespan*3/2 {
		t.Fatalf("full policy much worse than preferred-only: %v vs %v",
			rows[0].Result.Makespan, rows[1].Result.Makespan)
	}
}

func TestCRTransferAblationSlower(t *testing.T) {
	rows := CRTransfer(16, DefaultSeed)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	dmr, cr := rows[1].Result, rows[2].Result
	if cr.Resizes == 0 {
		t.Fatal("C/R run never resized")
	}
	// Moving resize data through the PFS must cost at least as much per
	// job as in-memory redistribution.
	if cr.AvgExec < dmr.AvgExec {
		t.Fatalf("C/R exec %v beat DMR %v", cr.AvgExec, dmr.AvgExec)
	}
}

func TestIntraNodeTaskingAmdahl(t *testing.T) {
	rows := IntraNode([]int{1, 4, 16}, 32, 4*sim.Millisecond)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Speedup != 1 {
		t.Fatalf("sequential speedup %v", rows[0].Speedup)
	}
	if rows[1].Speedup <= 1.5 || rows[2].Speedup <= rows[1].Speedup {
		t.Fatalf("speedups %v / %v not increasing", rows[1].Speedup, rows[2].Speedup)
	}
	// Amdahl: the serialized reduction bounds the 16-core speedup well
	// below linear.
	if rows[2].Speedup > 12 {
		t.Fatalf("16-core speedup %v suspiciously near linear", rows[2].Speedup)
	}
	if out := IntraNodeTable(rows).Text(); !strings.Contains(out, "cores") {
		t.Fatal("format broken")
	}
}

func TestFig7AsyncRuns(t *testing.T) {
	cs := Fig7([]int{10}, DefaultSeed)
	if len(cs) != 1 {
		t.Fatalf("%d comparisons", len(cs))
	}
	if cs[0].Flexible.Jobs != 10 {
		t.Fatal("async flexible run incomplete")
	}
}
