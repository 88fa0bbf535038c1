package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/slurm"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 2}, 2},
	} {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", in, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("median reordered its input: %v", c.xs)
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(20 - i) // 20..1, unsorted
	}
	for _, c := range []struct {
		p    int
		want float64
	}{
		{1, 1}, {5, 1}, {6, 2}, {50, 10}, {95, 19}, {96, 20}, {100, 20},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%d = %v, want %v", c.p, got, c.want)
		}
	}
	// The rank rule must match metrics.Collect's p95: index
	// (n*95+99)/100-1 of the sorted waits, for every n.
	for n := 1; n <= 250; n++ {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = float64(i)
		}
		if got, want := percentile(ws, 95), ws[(n*95+99)/100-1]; got != want {
			t.Fatalf("n=%d: p95 = %v, metrics.Collect takes %v", n, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 95)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestBudgetShares(t *testing.T) {
	rows := []budgetRow{
		{Layer: "sim", What: "resumes", Count: 2e6, UnitNs: 500, Base: 2},
		{Layer: "slurm", What: "passes", Seconds: 0.25, Base: 2.5},
		{Layer: "energy", What: "idle", Count: 0, UnitNs: 30, Base: 2},
		{Layer: "sim", What: "no base", Count: 10, UnitNs: 1},
	}
	for i, want := range []float64{0.5, 0.1, 0, 0} {
		if got := rows[i].share(); math.Abs(got-want) > 1e-12 {
			t.Errorf("row %d share = %v, want %v", i, got, want)
		}
	}
	var buf bytes.Buffer
	writeBudget(&buf, rows)
	out := buf.String()
	for _, want := range []string{"50.0%", "10.0%", "resumes", "2000000", "2.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("budget table lacks %q:\n%s", want, out)
		}
	}
}

func digestJobs() []*slurm.Job {
	return []*slurm.Job{
		{ID: 1, SubmitTime: 0, StartTime: 10 * sim.Second, EndTime: 70 * sim.Second, ResizeCount: 1},
		{ID: 2, SubmitTime: 5 * sim.Second, StartTime: 70 * sim.Second, EndTime: 90 * sim.Second},
	}
}

func TestDigestStableAndSensitive(t *testing.T) {
	base := digest(digestJobs(), nil)
	if again := digest(digestJobs(), nil); again != base {
		t.Fatalf("digest of equal outcomes differs: %x vs %x", base, again)
	}
	mutations := map[string]func(js []*slurm.Job){
		"start":  func(js []*slurm.Job) { js[1].StartTime++ },
		"end":    func(js []*slurm.Job) { js[0].EndTime++ },
		"submit": func(js []*slurm.Job) { js[1].SubmitTime-- },
		"resize": func(js []*slurm.Job) { js[1].ResizeCount = 2 },
		"order":  func(js []*slurm.Job) { js[0], js[1] = js[1], js[0] },
	}
	for name, mutate := range mutations {
		js := digestJobs()
		mutate(js)
		if digest(js, nil) == base {
			t.Errorf("digest ignores a changed %s", name)
		}
	}
}

func TestDigestCoversEnergy(t *testing.T) {
	k := sim.NewKernel()
	profiles := []energy.Profile{energy.DefaultProfile(), energy.DefaultProfile()}
	acct := energy.New(k, profiles)
	acct.NodeActive(0, 1, 0)
	k.RunUntil(10 * sim.Second)
	before := digest(digestJobs(), acct)
	if before == digest(digestJobs(), nil) {
		t.Fatal("digest ignores the accountant")
	}
	k.RunUntil(20 * sim.Second) // more joules drawn, same job records
	if digest(digestJobs(), acct) == before {
		t.Error("digest ignores a change in energy")
	}
}

func TestCheckResultRecomputesFigures(t *testing.T) {
	jobs := digestJobs()
	good := &metrics.WorkloadResult{Jobs: 2, Makespan: 90 * sim.Second, AvgWait: 37500 * sim.Millisecond, P95Wait: 65 * sim.Second}
	if bad := checkResult(jobs, good); len(bad) != 0 {
		t.Fatalf("consistent result flagged: %v", bad)
	}
	wrong := *good
	wrong.Makespan, wrong.P95Wait = 80*sim.Second, 10*sim.Second
	if bad := checkResult(jobs, &wrong); len(bad) != 2 {
		t.Errorf("want makespan and p95 flagged, got %v", bad)
	}
	jobs[1].StartTime = jobs[1].EndTime + 1
	if bad := checkResult(jobs, good); len(bad) == 0 {
		t.Error("a job ending before it starts was not flagged")
	}
}

func TestRunGuardedTurnsPanicIntoError(t *testing.T) {
	in := &instance{run: func() *metrics.WorkloadResult { panic("deadlocked processes after drain") }}
	res, err := runGuarded(in)
	if err == nil || res != nil || !strings.Contains(err.Error(), "deadlocked") {
		t.Fatalf("runGuarded = %v, %v; want the panic as an error", res, err)
	}
}

func TestCheckEnergyCatchesJoulesOutsideTheStream(t *testing.T) {
	k := sim.NewKernel()
	acct := energy.New(k, []energy.Profile{energy.DefaultProfile(), energy.DefaultProfile()})
	acct.NodeActive(0, 1, 0)
	k.RunUntil(10 * sim.Second)
	jobs := digestJobs()
	res := &metrics.WorkloadResult{EnergyJ: acct.JobJoules(1)}
	if bad := checkEnergy(acct, jobs, res); len(bad) != 0 {
		t.Fatalf("balanced books flagged: %v", bad)
	}
	acct.NodeActive(1, 99, 0) // a job the stream never submitted
	k.RunUntil(20 * sim.Second)
	bad := checkEnergy(acct, jobs, res)
	if len(bad) != 1 || !strings.Contains(bad[0], "stream's jobs are charged") {
		t.Errorf("joules charged to job 99 not flagged: %v", bad)
	}
}
