package main

import (
	"time"

	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Layer probes: timed loops over one layer's public functions, with
// inputs shaped by the workload's traced run. Each returns the median
// nanoseconds per unit of work over several batches.

// probeBatches is how many timed batches a probe's median is taken over.
const probeBatches = 9

// probeTarget is the wall time one batch is sized to take.
const probeTarget = 40 * time.Millisecond

// sinkF keeps probed results observable so the loops are not removed.
var sinkF float64

// probe sizes a batch by doubling until it takes probeTarget, then
// returns the median ns per unit over probeBatches batches. setup builds
// a fresh input for about n units and returns the timed body with the
// number of units it performs.
func probe(setup func(n int) (body func(), units int)) float64 {
	n := 1
	for {
		body, _ := setup(n)
		t0 := time.Now()
		body()
		if el := time.Since(t0); el >= probeTarget/4 || n >= 1<<24 {
			n = max(1, int(float64(n)*float64(probeTarget)/float64(el+1)))
			break
		}
		n *= 2
	}
	per := make([]float64, probeBatches)
	for i := range per {
		body, units := setup(n)
		t0 := time.Now()
		body()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(units)
	}
	return median(per)
}

// loop is a probe input whose body performs exactly n units.
func loop(body func(n int)) func(n int) (func(), int) {
	return func(n int) (func(), int) { return func() { body(n) }, n }
}

// probeHandoff times one process resume: procs processes sleep in
// turn, each sleep a calendar event that hands control to the process
// and back. procs is the fleet size (one rank per node, as in the
// workload), so the resumes rotate over as many goroutine stacks.
func probeHandoff(procs int) float64 {
	return probe(func(n int) (func(), int) {
		k := sim.NewKernel()
		per := max(1, n/procs)
		for i := 0; i < procs; i++ {
			k.Spawn("handoff-probe", func(p *sim.Proc) {
				for j := 0; j < per; j++ {
					p.Sleep(1)
				}
			})
		}
		return k.Run, procs * (per + 1) // each process also resumes once to start
	})
}

// probeEvents times one calendar event over a mix of same-instant and
// future After calls, with depth far-future events pending so the heap
// has the workload's depth.
func probeEvents(depth int) float64 {
	const far = sim.Time(1) << 50
	return probe(func(n int) (func(), int) {
		k := sim.NewKernel()
		for i := 0; i < depth; i++ {
			k.At(far+sim.Time(i), func() {})
		}
		left := n
		var fire func()
		fire = func() {
			left--
			switch {
			case left <= 0:
			case left%2 == 0:
				k.After(0, fire)
			default:
				k.After(sim.Time(1+left%7), fire)
			}
		}
		k.After(1, fire)
		return func() { k.RunUntil(far - 1) }, n
	})
}

// probeCluster builds a fresh cluster on the workload's platform with
// the first width nodes active under an accountant.
func probeCluster(pc platform.Config, width int) (*platform.Cluster, *energy.Accountant) {
	cl := platform.New(pc)
	acct := energy.New(cl.K, cl.PowerProfiles())
	for i := 0; i < width; i++ {
		acct.NodeActive(i, 1, 0)
	}
	return cl, acct
}

// probeBcast times one Bcast over a world of width ranks.
func probeBcast(pc platform.Config, width int) float64 {
	return probe(func(n int) (func(), int) {
		cl := platform.New(pc)
		comm := mpi.NewWorld(cl, cl.Nodes[:width])
		comm.Start("bcast-probe", func(r *mpi.Rank) {
			for i := 0; i < n; i++ {
				r.Bcast(0, i, 8)
			}
		})
		return cl.K.Run, n
	})
}

// probeMinSpeed times Comm.MinSpeed over width ranks, reading each
// node's live speed from the accountant as the step loop does.
func probeMinSpeed(pc platform.Config, width int) float64 {
	cl, acct := probeCluster(pc, width)
	comm := mpi.NewWorld(cl, cl.Nodes[:width])
	speed := func(nd *platform.Node) float64 { return acct.Speed(nd.Index) }
	return probe(loop(func(n int) {
		for i := 0; i < n; i++ {
			sinkF += comm.MinSpeed(speed)
		}
	}))
}

// probeTransitions times one accountant power-state transition, cycling
// nodes through active, idle, sleep and wake.
func probeTransitions(pc platform.Config) float64 {
	return probe(func(n int) (func(), int) {
		cl := platform.New(pc)
		acct := energy.New(cl.K, cl.PowerProfiles())
		nodes := acct.Nodes()
		cycles := max(1, n/4)
		return func() {
			for i := 0; i < cycles; i++ {
				node := i % nodes
				acct.NodeActive(node, 1, 0)
				acct.NodeIdle(node)
				acct.NodeSleep(node, 0)
				acct.WakeIdle(node)
			}
		}, 4 * cycles
	})
}

// probeSpeed times one Accountant.Speed read of an active node.
func probeSpeed(pc platform.Config) float64 {
	nodes := pc.Nodes
	_, acct := probeCluster(pc, nodes)
	return probe(loop(func(n int) {
		for i := 0; i < n; i++ {
			sinkF += acct.Speed(i % nodes)
		}
	}))
}

// probeFaults times one node life drawn from the fault injector: the
// crash draw for the node's class and the repair draw, cycling over the
// fleet's nodes.
func probeFaults(pc platform.Config, seed int64) float64 {
	cl := platform.New(pc)
	return probe(func(n int) (func(), int) {
		in := faults.New(faultConfig(seed))
		return func() {
			for i := 0; i < n; i++ {
				d, _ := in.NextCrash(0, cl.Nodes[i%len(cl.Nodes)].Class())
				sinkF += float64(d + in.RepairTime())
			}
		}, n
	})
}
