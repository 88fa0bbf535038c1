package main

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// bench is one benchmark workload: a seeded, pre-generated job stream
// and the system it runs on.
type bench struct {
	name string
	why  string
	// streams is how many independent streams one run simulates.
	streams int
	// dominant names the layer the workload exists to stress: "handoff"
	// (sim process handoff carries the run), "pass" (the slurm
	// scheduling pass does) or "" (no single layer).
	dominant string
	// generate draws the job stream for one seed.
	generate func(seed int64) []workload.Spec
	// build wires a fresh system for the stream. sink is the telemetry
	// sink to attach (nil: telemetry off, unless the workload always
	// runs it).
	build func(seed int64, sink *telemetry.Sink) *instance
}

// instance is one built system, ready for its stream.
type instance struct {
	ctl  *slurm.Controller
	sink *telemetry.Sink
	// submit hands the stream to the controller and returns the tracked
	// jobs in submission order.
	submit func(specs []workload.Spec) []*slurm.Job
	// run drives the simulation to completion and collects the result.
	run func() *metrics.WorkloadResult
}

// export writes the telemetry trace and registry to a discarding
// writer, the cost a run pays to hand its artifacts over.
func (in *instance) export() error {
	if in.sink == nil {
		return nil
	}
	if err := in.sink.Trace.WriteJSON(io.Discard); err != nil {
		return fmt.Errorf("export trace: %w", err)
	}
	if err := in.sink.Reg.WriteProm(io.Discard); err != nil {
		return fmt.Errorf("export registry: %w", err)
	}
	return nil
}

var benches = []bench{paperDMR, traceReplay, allFeatures}

func lookupBench(name string) (bench, bool) {
	for _, b := range benches {
		if b.name == name {
			return b, true
		}
	}
	return bench{}, false
}

// Stream sizes of the three workloads.
const (
	paperDMRJobs    = 1000
	traceReplayJobs = 10000
	traceNodes      = 2048
	allFeaturesJobs = 600
)

// paperDMR is the paper's §IX setting: CG/Jacobi/N-body, all flexible,
// Algorithm 1 with synchronous checks on the 65-node testbed, with
// energy accounting and the stock sleep ladder.
var paperDMR = bench{
	name:     "paper-dmr",
	streams:  8,
	dominant: "handoff",
	why:      "the paper's own setting; the process layer (sim handoff, mpi, nanos) dominates",
	generate: func(seed int64) []workload.Spec {
		return workload.Generate(workload.Realistic(paperDMRJobs, seed))
	},
	build: func(_ int64, sink *telemetry.Sink) *instance {
		cfg := core.DefaultConfig()
		cfg.Energy = true
		cfg.SleepLadder = slurm.DefaultSleepLadder()
		cfg.Telemetry = sink
		return coreInstance(cfg)
	},
}

// allFeatures is the §IX mix at a quarter of the arrival rate with the
// diurnal shape on a mixed fleet, every subsystem switched on and the
// telemetry sink always attached.
var allFeatures = bench{
	name:    "all-features",
	streams: 5,
	why:     "every feature on: thermal, ladder, elastic, faults, migration and telemetry over the same layers",
	generate: func(seed int64) []workload.Spec {
		p := workload.Realistic(allFeaturesJobs, seed)
		p.MeanArrival = 240 * sim.Second
		p.Arrival = workload.Diurnal(24*3600*sim.Second, 0.01)
		return workload.Generate(p)
	},
	build: func(seed int64, sink *telemetry.Sink) *instance {
		pc := platform.Marenostrum3()
		fast := pc.Nodes / 2
		pc.Classes = []platform.MachineClass{
			{Count: fast, Power: energy.DefaultProfile()},
			{Count: pc.Nodes - fast, Power: energy.EfficiencyProfile()},
		}
		cfg := core.DefaultConfig()
		cfg.Platform = &pc
		cfg.ClassAware = true
		cfg.Thermal = true
		cfg.SleepLadder = slurm.DefaultSleepLadder()
		cfg.Elastic = &slurm.ElasticConfig{Min: 16, Max: pc.Nodes, TargetWait: 120 * sim.Second, BootBurst: 16}
		fc := faultConfig(seed)
		cfg.Faults = &fc
		cfg.CkptEvery = 5
		cfg.Migration = &slurm.MigrationConfig{}
		if sink == nil {
			sink = telemetry.New()
		}
		cfg.Telemetry = sink
		return coreInstance(cfg)
	},
}

// widths returns the submitted job widths of the stream for seed.
func (b bench) widths(seed int64) []float64 {
	specs := b.generate(seed)
	w := make([]float64, len(specs))
	for i, sp := range specs {
		w[i] = float64(sp.Nodes)
	}
	return w
}

// purpose checks the traced shares against the layer the workload is
// meant to stress: the dominant layer must take most of the wall time
// and the other one little of it.
func (b bench) purpose(handoffShare, passShare float64) string {
	verdict := func(ok bool) string {
		if ok {
			return "met"
		}
		return "NOT MET"
	}
	switch b.dominant {
	case "handoff":
		return fmt.Sprintf("sim.handoff_share %.3f > 0.5 and slurm.pass_share %.3f < 0.05: %s",
			handoffShare, passShare, verdict(handoffShare > 0.5 && passShare < 0.05))
	case "pass":
		return fmt.Sprintf("slurm.pass_share %.3f > 0.5 and sim.handoff_share %.3f < 0.2: %s",
			passShare, handoffShare, verdict(passShare > 0.5 && handoffShare < 0.2))
	}
	return fmt.Sprintf("sim.handoff_share %.3f, slurm.pass_share %.3f (no single dominant layer)", handoffShare, passShare)
}

// faultConfig is the all-features fault model: node crashes at a
// 200000 s MTBF and one elastic boot in twenty failing.
func faultConfig(seed int64) faults.Config {
	return faults.Config{MTBF: 200000 * sim.Second, BootFailP: 0.05, Seed: seed}
}

// coreInstance builds a full-stack system through the core facade.
func coreInstance(cfg core.Config) *instance {
	sys := core.NewSystem(cfg)
	return &instance{
		ctl:  sys.Ctl,
		sink: cfg.Telemetry,
		submit: func(specs []workload.Spec) []*slurm.Job {
			sys.SubmitAll(specs)
			return sys.Jobs()
		},
		run: sys.Run,
	}
}

// traceReplay replays the scale study's stream as timer jobs on a
// 2048-node half-fast/half-efficiency fleet: every job is one process
// that sleeps for its runtime, so the controller's scheduling pass,
// backfill and placement carry the run.
var traceReplay = bench{
	name:     "trace-replay",
	streams:  8,
	dominant: "pass",
	why:      "applications reduced to timers on a 2048-node fleet; the slurm scheduling pass dominates",
	generate: func(seed int64) []workload.Spec {
		p := workload.Preliminary(traceReplayJobs, 1, seed)
		p.MaxNodes = traceNodes / 8
		p.MeanArrival = 2 * sim.Second
		p.Iterations = 10
		p.RepeatProb = 0
		p.ClassMix = workload.DefaultClassMix()
		return workload.Generate(p)
	},
	build: func(_ int64, sink *telemetry.Sink) *instance {
		pc := platform.Marenostrum3()
		pc.Nodes = traceNodes
		pc.Classes = []platform.MachineClass{
			{Count: traceNodes / 2, Power: energy.DefaultProfile()},
			{Count: traceNodes - traceNodes/2, Power: energy.EfficiencyProfile()},
		}
		cl := platform.New(pc)
		acct := energy.New(cl.K, cl.PowerProfiles())
		rec := &metrics.Recorder{}
		rec.AttachPower(acct) // before the controller: it may arm sleeps
		scfg := slurm.DefaultConfig()
		scfg.ClassAware = true
		scfg.Energy = acct
		scfg.IdleSleep = 120 * sim.Second
		scfg.Telemetry = sink
		ctl := slurm.NewController(cl, scfg)
		rec.Attach(ctl)
		var tracked []*slurm.Job
		return &instance{
			ctl:  ctl,
			sink: sink,
			submit: func(specs []workload.Spec) []*slurm.Job {
				tracked = make([]*slurm.Job, 0, len(specs))
				for _, sp := range specs {
					j := &slurm.Job{
						Name:      fmt.Sprintf("FS-%05d", sp.Index),
						ReqNodes:  sp.Nodes,
						TimeLimit: sim.Time(float64(sp.Runtime) * 4),
						ReqClass:  sp.ReqClass,
						PrefClass: sp.PrefClass,
					}
					// A class-pinned job can never outgrow its class.
					if cc := cl.ClassCount(j.ReqClass); j.ReqClass != "" && cc > 0 && j.ReqNodes > cc {
						j.ReqNodes = cc
					}
					d := sp.Runtime
					j.Launch = func(j *slurm.Job, _ []*platform.Node) {
						cl.K.Spawn(j.Name, func(p *sim.Proc) {
							p.Sleep(d)
							ctl.JobComplete(j)
						})
					}
					tracked = append(tracked, j)
					cl.K.At(sp.Arrival, func() { ctl.Submit(j) })
				}
				return tracked
			},
			run: func() *metrics.WorkloadResult {
				cl.K.Run()
				if live := cl.K.LiveProcs(); len(live) != 0 {
					panic(fmt.Sprintf("deadlocked processes after drain: %v", live))
				}
				acct.FlushSamples()
				if sink != nil {
					ctl.FlushTelemetry()
				}
				res := metrics.Collect(tracked, &rec.Trace)
				res.EnergyJ = rec.PowerTrace.EnergyJoules(res.Makespan)
				return res
			},
		}
	},
}
