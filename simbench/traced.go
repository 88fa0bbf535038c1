package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// probeReserve is the wall time kept back for the two-P run's margin and
// the layer probes.
const probeReserve = 6 * time.Second

// traced runs the workload's first stream with a resume counter on the
// kernel and the telemetry sink attached, then the same stream untraced
// (the overhead baseline) and at GOMAXPROCS=altProcs, then the layer probes
// shaped by the traced run. It reports the per-layer metrics and prints
// the layer budget. Every run must reproduce the traced run's digest.
func traced(b bench, seed int64, budget time.Duration, t *tally) map[string]metric {
	start := time.Now()
	s0 := streamSeed(seed, 0)
	sink := telemetry.New()
	var resumes uint64
	var pc platform.Config
	runtime.GC()
	tr := simulate(b, s0, sink, func(in *instance) {
		in.ctl.Kernel().Trace = func(sim.Time, string) { resumes++ }
		pc = in.ctl.Cluster().Cfg
	})
	t.add(tr)
	fmt.Printf("traced: setup %.4f s, wall %.3f s (export %.4f s), %d events, %d resumes, digest %016x\n",
		tr.setupS(), tr.wallS(), tr.exportS, tr.events, resumes, tr.digest)
	var gens, builds, submits []float64
	spans := func(o outcome) {
		gens = append(gens, o.generateS)
		builds = append(builds, o.buildS)
		submits = append(submits, o.submitS)
	}
	spans(tr)
	same := func(label string, o outcome) {
		t.add(o)
		spans(o)
		if o.digest != tr.digest {
			t.fail(o, fmt.Sprintf("%s outcome digest %016x differs from the traced run's %016x", label, o.digest, tr.digest))
		}
	}

	// Untraced baseline, repeated while the budget allows (2 to 5 runs).
	var walls []float64
	var alloc, gcs float64
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		o := simulate(b, s0, nil, nil)
		runtime.ReadMemStats(&m1)
		same("untraced", o)
		walls = append(walls, o.wallS())
		if i == 0 {
			alloc = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
			gcs = float64(m1.NumGC - m0.NumGC)
		}
		fmt.Printf("untraced %d: wall %.3f s\n", i+1, o.wallS())
		per := time.Since(start) / time.Duration(i+2)
		if i >= 1 && time.Since(start)+2*per+probeReserve > budget {
			break
		}
	}
	wall := median(walls)

	// The same stream on two Ps: the cost of cross-thread handoff.
	procs := runtime.GOMAXPROCS(min(altProcs, runtime.NumCPU()))
	runtime.GC()
	alt := simulate(b, s0, nil, nil)
	runtime.GOMAXPROCS(procs)
	same(fmt.Sprintf("GOMAXPROCS=%d", altProcs), alt)
	fmt.Printf("GOMAXPROCS=%d: wall %.3f s\n", altProcs, alt.wallS())

	// Registry readings from the traced run.
	reg := sink.Reg
	count := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var passWall, lostWork float64
	if h := sink.Prof.LookupHistogram("sched_pass_wall_seconds"); h != nil {
		passWall = h.Sum()
	}
	if h := reg.LookupHistogram("fault_lost_work_seconds"); h != nil {
		lostWork = h.Sum()
	}
	checks := count("dmr_checks_total")
	hits, misses := count("sched_pick_cache_hits_total"), count("sched_pick_cache_misses_total")
	sleeps, wakes := count("node_sleep_total"), count("node_wake_total")

	// Probes shaped by the traced run: the median submitted width and
	// the deepest pending queue.
	width := min(pc.Nodes, max(1, int(median(b.widths(s0)))))
	depth := max(1, int(reg.Gauge("sched_queue_depth").Max()))
	handoff := probeHandoff(pc.Nodes)
	event := probeEvents(depth)
	bcast := probeBcast(pc, width)
	minSpeed := probeMinSpeed(pc, width)
	transition := probeTransitions(pc)
	speed := probeSpeed(pc)
	faultDraw := probeFaults(pc, s0)
	refs := make([]float64, 5)
	for i := range refs {
		refs[i] = refHandoff()
	}
	refNs := median(refs) / refHops * 1e9
	fmt.Printf("probes: width %d, queue depth %d\n", width, depth)

	// Counts repeat exactly between the traced and untraced runs, so
	// count × probe rows are shares of the untraced wall. Spans measured
	// inside the traced run are shares of that run's own times.
	rows := []budgetRow{
		{Layer: "sim", What: "process resumes x handoff", Count: float64(resumes), UnitNs: handoff, Base: wall},
		{Layer: "sim", What: "other events x event", Count: float64(tr.events) - float64(resumes), UnitNs: event, Base: wall},
		{Layer: "slurm", What: "scheduling passes (traced run)", Seconds: passWall, Base: tr.runS},
		{Layer: "energy", What: "sleeps+wakes x transition", Count: sleeps + wakes, UnitNs: transition, Base: wall},
		{Layer: "telemetry", What: "export (traced run)", Seconds: tr.exportS, Base: tr.wallS()},
	}
	writeBudget(os.Stdout, rows)
	handoffShare := rows[0].share()
	passShare := rows[2].share()
	overhead := 100 * (tr.wallS() - wall) / wall
	fmt.Printf("tracing overhead: traced %.3f s vs untraced %.3f s (%+.1f%%)\n", tr.wallS(), wall, overhead)
	fmt.Printf("purpose: %s\n", b.purpose(handoffShare, passShare))
	fmt.Printf("features: %.0f thermal throttles, %.0f elastic boots, %.0f node failures (%.0f s work lost), %.0f migrations\n",
		count("thermal_throttles_total"), count("elastic_boots_total"), count("fault_failures_total"), lostWork, count("migrations_total"))

	return map[string]metric{
		"sim.events":                 {float64(tr.events), "count"},
		"sim.resumes":                {float64(resumes), "count"},
		"sim.handoff_ns":             {handoff, "ns"},
		"sim.event_ns":               {event, "ns"},
		"sim.handoff_share":          {handoffShare, "ratio"},
		"sim.wall_s":                 {wall, "s"},
		"sim.wall_s_2p":              {alt.wallS(), "s"},
		"mpi.bcast_ns":               {bcast, "ns"},
		"mpi.minspeed_ns":            {minSpeed, "ns"},
		"nanos.checks":               {checks, "count"},
		"nanos.noaction_ratio":       {ratio(count("dmr_noaction_total"), checks), "ratio"},
		"nanos.shrinks":              {count("dmr_shrink_total"), "count"},
		"nanos.expands":              {count("dmr_expand_total"), "count"},
		"slurm.passes":               {count("sched_passes_total"), "count"},
		"slurm.pass_wall_s":          {passWall, "s"},
		"slurm.pass_share":           {passShare, "ratio"},
		"slurm.backfill_start_ratio": {ratio(count("sched_backfill_starts_total"), count("sched_backfill_scanned_total")), "ratio"},
		"slurm.pick_hit_ratio":       {ratio(hits, hits+misses), "ratio"},
		"energy.transition_ns":       {transition, "ns"},
		"energy.speed_ns":            {speed, "ns"},
		"energy.sleeps":              {sleeps, "count"},
		"energy.wakes":               {wakes, "count"},
		"faults.draw_ns":             {faultDraw, "ns"},
		"telemetry.export_s":         {tr.exportS, "s"},
		"telemetry.overhead_pct":     {overhead, "%"},
		"workload.generate_s":        {median(gens), "s"},
		"core.build_s":               {median(builds), "s"},
		"core.submit_s":              {median(submits), "s"},
		"go.alloc_mb":                {alloc, "MB"},
		"go.gc_cycles":               {gcs, "count"},
		"go.ref_handoff_ns":          {refNs, "ns"},
	}
}
