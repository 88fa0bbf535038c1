package slurm

import (
	"fmt"
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// BenchmarkSchedulingPass measures controller-level throughput with a deep
// pending queue churned by completions (priority sort + EASY backfill
// per event).
func BenchmarkSchedulingPass(b *testing.B) {
	cl := testCluster(64)
	c := NewController(cl, DefaultConfig())
	for i := 0; i < b.N; i++ {
		nodes := 1 + i%32
		c.Submit(sleeperJob(c, fmt.Sprintf("j%d", i), nodes, sim.Time(1+i%50)*sim.Second))
	}
	b.ResetTimer()
	cl.K.Run()
}

// BenchmarkBackfillScan measures one scheduling pass over a deep EASY
// backfill queue at fleet scale: a 2048-node half-fast/half-efficiency
// ClassAware fleet with energy accounting and idle sleep, 1920 nodes
// held by running jobs, the 128 free ones asleep, a whole-fleet head
// job blocked behind them and 1700 pending candidates of mixed widths
// and class demands that all fit the free pool but none of which may
// start (each outlasts the shadow time and would erode a zero-node
// reservation). Every pass prices every candidate's launch bounds. The
// pool version is bumped before each pass, as a completion would, so
// each pass also rebuilds its placement orders. Reported per pass.
func BenchmarkBackfillScan(b *testing.B) {
	cfg := platform.Marenostrum3()
	cfg.Nodes = 2048
	cfg.Classes = []platform.MachineClass{
		{Count: 1024, Power: energy.DefaultProfile()},
		{Count: 1024, Power: energy.EfficiencyProfile()},
	}
	cl := platform.New(cfg)
	scfg := DefaultConfig()
	scfg.ClassAware = true
	scfg.Energy = energy.New(cl.K, cl.PowerProfiles())
	scfg.IdleSleep = 60 * sim.Second
	c := NewController(cl, scfg)
	for i := 0; i < 15; i++ {
		c.Submit(sleeperJob(c, fmt.Sprintf("hold%d", i), 128, sim.Time(i+1)*sim.Hour))
	}
	cl.K.RunUntil(2 * sim.Minute) // the free nodes doze off
	c.Submit(sleeperJob(c, "head", 2048, sim.Hour))
	fast := energy.DefaultProfile().Class
	slow := energy.EfficiencyProfile().Class
	for i := 0; i < 1700; i++ {
		j := sleeperJob(c, fmt.Sprintf("cand%d", i), 1+i%96, 100*sim.Hour)
		switch i % 6 {
		case 1:
			j.PrefClass = fast
		case 2:
			j.PrefClass = slow
		case 3:
			j.ReqClass = fast
		}
		c.Submit(j)
	}
	cl.K.RunUntil(cl.K.Now() + sim.Second)
	if c.FreeNodes() != 128 || len(c.PendingJobs()) != 1701 {
		b.Fatalf("setup: %d free nodes, %d pending", c.FreeNodes(), len(c.PendingJobs()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.pool.bump()
		c.schedulePass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pass")
}

// BenchmarkResizeDance measures the full §III expand sequence (submit
// resizer → allocate → detach → cancel → grow) end to end.
func BenchmarkResizeDance(b *testing.B) {
	cl := testCluster(16)
	c := NewController(cl, DefaultConfig())
	j := &Job{Name: "app", ReqNodes: 2, TimeLimit: 1 << 40}
	dances := b.N
	j.Launch = func(j *Job, _ []*platform.Node) {
		cl.K.Spawn("app", func(p *sim.Proc) {
			for i := 0; i < dances; i++ {
				done := sim.NewSignal(cl.K)
				c.SubmitResizer(j, 2, func(rj *Job) {
					nodes := c.DetachNodes(rj)
					c.CancelResizer(rj)
					c.GrowJob(j, nodes)
					done.Fire()
				})
				done.Wait(p)
				c.ShrinkJob(j, 2) // reset for the next round
			}
			c.JobComplete(j)
		})
	}
	c.Submit(j)
	b.ResetTimer()
	cl.K.Run()
}

// BenchmarkReconfigDecision measures the policy RPC path under a busy
// queue (the §VIII-E contention point).
func BenchmarkReconfigDecision(b *testing.B) {
	cl := testCluster(32)
	cfg := DefaultConfig()
	cfg.RPCService = 0 // isolate decision cost from modeled service time
	c := NewController(cl, cfg)
	c.cfg.Policy = benchPolicy{}
	holder := c.Submit(sleeperJob(c, "holder", 8, sim.Hour))
	for i := 0; i < 64; i++ {
		c.Submit(sleeperJob(c, fmt.Sprintf("pend%d", i), 32, sim.Hour))
	}
	decisions := b.N
	cl.K.Spawn("checker", func(p *sim.Proc) {
		for i := 0; i < decisions; i++ {
			c.ReconfigRPC(p, holder, ResizeRequest{MinProcs: 2, MaxProcs: 16, Factor: 2, Preferred: 8})
		}
	})
	b.ResetTimer()
	cl.K.RunUntil(sim.Hour / 2)
}

// benchPolicy walks the queue like Algorithm 1 but always answers
// no-action, isolating the view-building cost.
type benchPolicy struct{}

func (benchPolicy) Decide(v *QueueView, req ResizeRequest) Decision {
	_ = v.PendingEligible()
	_ = v.FreeNodes()
	return Decision{Action: NoAction}
}
