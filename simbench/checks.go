package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/telemetry"
)

// outcome is what one simulated stream produced and what it cost.
type outcome struct {
	jobs     int
	failed   int      // jobs that did not complete, or every job when a check failed
	problems []string // correctness checks that failed
	digest   uint64
	// Modeled outcomes, set when the run passed its checks.
	makespanS, avgWaitS, p95WaitS, energyMJ float64

	// Host seconds of each phase.
	generateS, buildS, submitS float64
	runS, exportS              float64
	// Kernel work of the run.
	events uint64
}

// setupS is the set-up time: generate, build and submit.
func (o outcome) setupS() float64 { return o.generateS + o.buildS + o.submitS }

// wallS is the run time through result collection and export.
func (o outcome) wallS() float64 { return o.runS + o.exportS }

// simulate generates, builds, submits and runs one stream, timing each
// phase, then checks the result. hook, when non-nil, sees the built
// instance before submission (the traced run installs its counters
// there). A panic inside the run — a drained-kernel deadlock or an
// incomplete job reaching result collection — becomes a counted
// failure, not a crash.
func simulate(b bench, seed int64, sink *telemetry.Sink, hook func(*instance)) outcome {
	var o outcome
	t0 := time.Now()
	specs := b.generate(seed)
	t1 := time.Now()
	in := b.build(seed, sink)
	if hook != nil {
		hook(in)
	}
	t2 := time.Now()
	jobs := in.submit(specs)
	t3 := time.Now()
	res, perr := runGuarded(in)
	t4 := time.Now()
	var eerr error
	if perr == nil {
		eerr = in.export()
	}
	t5 := time.Now()
	o.generateS, o.buildS, o.submitS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	o.runS, o.exportS = t4.Sub(t3).Seconds(), t5.Sub(t4).Seconds()
	o.events = in.ctl.Kernel().Events()
	o.jobs = len(jobs)

	for _, j := range jobs {
		if j.State != slurm.StateCompleted {
			o.failed++
		}
	}
	if o.failed > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%d of %d jobs did not complete", o.failed, len(jobs)))
	}
	if perr != nil {
		o.problems = append(o.problems, perr.Error())
	}
	if eerr != nil {
		o.problems = append(o.problems, eerr.Error())
	}
	if len(o.problems) == 0 {
		o.problems = append(o.problems, checkResult(jobs, res)...)
		o.problems = append(o.problems, checkEnergy(in.ctl.Energy(), jobs, res)...)
		o.digest = digest(jobs, in.ctl.Energy())
	}
	if len(o.problems) > 0 {
		o.failed = len(jobs)
		return o
	}
	o.makespanS, o.avgWaitS, o.p95WaitS = res.Makespan.Seconds(), res.AvgWait.Seconds(), res.P95Wait.Seconds()
	o.energyMJ = res.EnergyJ / 1e6
	return o
}

// runGuarded runs the instance and turns a panic into an error.
func runGuarded(in *instance) (res *metrics.WorkloadResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("run panicked: %v", r)
		}
	}()
	return in.run(), nil
}

// checkResult recomputes the program's outcome figures from the job
// records and reports any that disagree, plus any job whose submit,
// start and end times are out of order.
func checkResult(jobs []*slurm.Job, res *metrics.WorkloadResult) []string {
	var bad []string
	if len(jobs) == 0 {
		return []string{"no jobs were submitted"}
	}
	var makespan, waitSum sim.Time
	waits := make([]float64, len(jobs))
	for i, j := range jobs {
		if !(j.SubmitTime <= j.StartTime && j.StartTime <= j.EndTime) {
			bad = append(bad, fmt.Sprintf("job %d times out of order: submit %v start %v end %v", j.ID, j.SubmitTime, j.StartTime, j.EndTime))
		}
		makespan = max(makespan, j.EndTime)
		waitSum += j.WaitTime()
		waits[i] = float64(j.WaitTime())
	}
	if res.Jobs != len(jobs) {
		bad = append(bad, fmt.Sprintf("result counts %d jobs, %d submitted", res.Jobs, len(jobs)))
	}
	if res.Makespan != makespan {
		bad = append(bad, fmt.Sprintf("makespan %v, job records give %v", res.Makespan, makespan))
	}
	if avg := waitSum / sim.Time(len(jobs)); res.AvgWait != avg {
		bad = append(bad, fmt.Sprintf("average wait %v, job records give %v", res.AvgWait, avg))
	}
	if p95 := sim.Time(percentile(waits, 95)); res.P95Wait != p95 {
		bad = append(bad, fmt.Sprintf("p95 wait %v, job records give %v", res.P95Wait, p95))
	}
	return bad
}

// checkEnergy checks the accountant's books. The joules charged to the
// stream's jobs must sum to the attributed total, so nothing is charged
// to a job outside the stream (a stale incarnation, say). Attributed
// plus unattributed joules must equal the total; the accountant defines
// the unattributed share as that difference, so this holds unless the
// accountant changes. Attributed joules lie in [0, total], and the
// workload energy over [0, makespan] is positive and within the total
// drawn through the drain.
func checkEnergy(acct *energy.Accountant, jobs []*slurm.Job, res *metrics.WorkloadResult) []string {
	if acct == nil {
		return []string{"no energy accountant attached"}
	}
	total, attr, unattr := acct.TotalJoules(), acct.AttributedJoules(), acct.UnattributedJoules()
	tol := 1e-9 * math.Max(1, total)
	var bad []string
	perJob := 0.0
	for _, j := range jobs {
		perJob += acct.JobJoules(j.ID)
	}
	if math.Abs(perJob-attr) > tol {
		bad = append(bad, fmt.Sprintf("the stream's jobs are charged %g J, the accountant attributes %g J", perJob, attr))
	}
	if math.Abs(attr+unattr-total) > tol {
		bad = append(bad, fmt.Sprintf("attributed %g J + unattributed %g J != total %g J", attr, unattr, total))
	}
	if attr < 0 || attr > total+tol {
		bad = append(bad, fmt.Sprintf("attributed %g J outside [0, total %g J]", attr, total))
	}
	if !(res.EnergyJ > 0 && res.EnergyJ <= total+tol) {
		bad = append(bad, fmt.Sprintf("workload energy %g J outside (0, total %g J]", res.EnergyJ, total))
	}
	return bad
}

// digest hashes a run's outcome: every job's submit, start and end time,
// resize count and attributed joules in submission order, then the
// cluster total. Two runs of one seed must agree bit for bit, whatever
// the tracing, telemetry or GOMAXPROCS.
func digest(jobs []*slurm.Job, acct *energy.Accountant) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, j := range jobs {
		put(uint64(j.ID))
		put(uint64(j.SubmitTime))
		put(uint64(j.StartTime))
		put(uint64(j.EndTime))
		put(uint64(j.ResizeCount))
		if acct != nil {
			put(math.Float64bits(acct.JobJoules(j.ID)))
		}
	}
	if acct != nil {
		put(math.Float64bits(acct.TotalJoules()))
	}
	return h.Sum64()
}
