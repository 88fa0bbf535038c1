package experiments

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/redist"
	"repro/internal/sim"
)

// Fig1Row is one bar group of Figure 1: the non-solving stages of the
// N-body simulation when resizing From→To processes with one mechanism.
type Fig1Row struct {
	Mechanism string // "C/R" or "DMR"
	From, To  int
	Initial   sim.Time // "Initial before solving"
	Spawning  sim.Time // the mechanism's reconfiguration cost
	Resized   sim.Time // "Resized after solving"
}

// Total returns the summed non-solving time.
func (r Fig1Row) Total() sim.Time { return r.Initial + r.Spawning + r.Resized }

// Fig1Targets are the paper's resize targets from 48 processes.
var Fig1Targets = []int{12, 24, 48}

// fig1Platform returns the Figure 1 calibration (DESIGN.md §5): the
// interconnect at effective MPI bandwidth, spawn cost dominated by the
// process-manager broadcast, and a metadata-bound parallel filesystem.
func fig1Platform() platform.Config {
	cfg := platform.Marenostrum3()
	cfg.Net = platform.NetModel{Latency: 2 * sim.Microsecond, BytesPerSec: 1e9}
	cfg.SpawnBase = 200 * sim.Millisecond
	cfg.SpawnPerProc = 5 * sim.Millisecond
	cfg.PFSBytesPS = 500e6
	cfg.PFSConcurrent = 4
	cfg.PFSOpenCost = 900 * sim.Millisecond
	return cfg
}

// Figure 1 stage durations: the init and post-resize phases are the
// same for both mechanisms; only "spawning" differs.
const (
	fig1Init    = 120 * sim.Second
	fig1Resized = 60 * sim.Second
	fig1State   = int64(8) << 30 // N-body particle state
	fig1From    = 48
	fig1TaskTag = 7
)

// Fig1 reproduces Figure 1 for every target size: each case is one
// simulated run of the non-solving stages under both mechanisms.
func Fig1(targets []int) []Fig1Row {
	var rows []Fig1Row
	for _, to := range targets {
		rows = append(rows, runFig1DMR(fig1From, to), runFig1CR(fig1From, to))
	}
	return rows
}

// runFig1DMR measures the DMR path: spawn the new process set over the
// retained nodes and redistribute the particle blocks in memory
// (Listing 3's shrink pattern; for equal sizes a direct respawn).
func runFig1DMR(from, to int) Fig1Row {
	cl := platform.New(fig1Platform())
	world := mpi.NewWorld(cl, cl.Nodes[:from])

	var t0, tReady sim.Time
	ready := 0
	perOld := fig1State / int64(from)

	childMain := func(cr *mpi.Rank) {
		pc := cr.Comm().Parent()
		cr.RecvRemote(pc, mpi.AnySource, fig1TaskTag)
		cr.Barrier()
		if cr.Rank() == 0 {
			tReady = cr.Now()
		}
		cr.Proc().Sleep(fig1Resized)
		ready++
	}

	var ic *mpi.Intercomm
	world.Start("dmr", func(r *mpi.Rank) {
		r.Proc().Sleep(fig1Init)
		r.Barrier()
		if r.Rank() == 0 {
			t0 = r.Now()
			ic = r.CommSpawn("dmr-new", cl.Nodes[:to], childMain)
		}
		// Everyone learns the handler (the runtime's Bcast of the check
		// result).
		r.Bcast(0, nil, 16)
		if from == to {
			r.SendRemote(ic, r.Rank(), fig1TaskTag, nil, perOld)
			return
		}
		factor := from / to
		sender, dst := redist.ShrinkRole(r.Rank(), factor)
		if sender {
			r.Send(dst, fig1TaskTag, nil, perOld)
			return
		}
		for i := 0; i < factor-1; i++ {
			r.Recv(mpi.AnySource, fig1TaskTag)
		}
		r.SendRemote(ic, dst, fig1TaskTag, nil, perOld*int64(factor))
	})
	cl.K.Run()
	if ready != to {
		panic(fmt.Sprintf("fig1 dmr: %d/%d new ranks finished", ready, to))
	}
	return Fig1Row{Mechanism: "DMR", From: from, To: to,
		Initial: fig1Init, Spawning: tReady - t0, Resized: fig1Resized}
}

// runFig1CR measures the Checkpoint/Restart path: all old processes
// write their share to the PFS, the job terminates and is requeued, and
// the restarted processes read the checkpoint back at the new size.
func runFig1CR(from, to int) Fig1Row {
	cl := platform.New(fig1Platform())
	cp := checkpoint.New(cl)
	world := mpi.NewWorld(cl, cl.Nodes[:from])

	var t0, tReady sim.Time
	written := sim.NewCounter(cl.K)
	written.Add(from)
	ready := 0

	world.Start("cr-old", func(r *mpi.Rank) {
		r.Proc().Sleep(fig1Init)
		r.Barrier()
		if r.Rank() == 0 {
			t0 = r.Now()
		}
		cp.Write(r.Proc(), fig1State/int64(from))
		written.Done()
	})

	// Driver: once the checkpoint is complete the job is resubmitted;
	// after the requeue and launch delay the restarted set reads.
	cl.K.Spawn("cr-driver", func(p *sim.Proc) {
		written.Wait(p)
		p.Sleep(100 * sim.Millisecond) // scheduling pass
		p.Sleep(cl.Cfg.SpawnBase + cl.Cfg.SpawnPerProc*sim.Time(to))
		newWorld := mpi.NewWorld(cl, cl.Nodes[:to])
		newWorld.Start("cr-new", func(r *mpi.Rank) {
			cp.Read(r.Proc(), fig1State/int64(to))
			r.Barrier()
			if r.Rank() == 0 {
				tReady = r.Now()
			}
			r.Proc().Sleep(fig1Resized)
			ready++
		})
	})
	cl.K.Run()
	if ready != to {
		panic(fmt.Sprintf("fig1 cr: %d/%d restarted ranks finished", ready, to))
	}
	return Fig1Row{Mechanism: "C/R", From: from, To: to,
		Initial: fig1Init, Spawning: tReady - t0, Resized: fig1Resized}
}

// Fig1Table is the comparison with the spawning-cost factors the paper
// annotates (C/R spawning over DMR spawning).
func Fig1Table(rows []Fig1Row) *Table {
	t := &Table{Title: "Figure 1: non-solving stages of the N-body simulation (48 → target)", Cols: []Col{
		{"mech", -5}, {"resize", -5}, {"initial(s)", 12}, {"spawning(s)", 12},
		{"resized(s)", 11}, {"total(s)", 10}, {"", 0},
	}}
	dmr := map[int]Fig1Row{}
	for _, r := range rows {
		if r.Mechanism == "DMR" {
			dmr[r.To] = r
		}
	}
	for _, r := range rows {
		factor := ""
		if d, ok := dmr[r.To]; ok && r.Mechanism == "C/R" && d.Spawning > 0 {
			factor = fmt.Sprintf("  spawn factor %.2fx", float64(r.Spawning)/float64(d.Spawning))
		}
		t.Row(r.Mechanism, fmt.Sprintf("%2d-%-2d", r.From, r.To), num(r.Initial.Seconds(), 2),
			num(r.Spawning.Seconds(), 2), num(r.Resized.Seconds(), 2), num(r.Total().Seconds(), 2), factor)
	}
	return t
}
