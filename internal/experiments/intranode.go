package experiments

import (
	"fmt"

	"repro/internal/ompss"
	"repro/internal/sim"
)

// IntraNodeRow is one core count of the intra-node tasking study.
type IntraNodeRow struct {
	Cores    int
	Makespan sim.Time
	Speedup  float64
}

// IntraNode runs one CG-style iteration as an OmpSs task graph on a
// single node with varying core counts: per-row-block mat-vec tasks
// (independent), a reduction chain (serialized on the accumulator), and
// an update pass depending on the reduction. The study validates the
// reproduction's premise that intra-node parallelism can be folded into
// the per-rank step-time models: speedup saturates once the serial
// reduction dominates (Amdahl behaviour on a real task graph).
func IntraNode(coreCounts []int, blocks int, blockTime sim.Time) []IntraNodeRow {
	var rows []IntraNodeRow
	var seq sim.Time
	for _, cores := range coreCounts {
		k := sim.NewKernel()
		rt := ompss.New(k, "node", cores)
		var end sim.Time
		k.Spawn("iteration", func(p *sim.Proc) {
			// Mat-vec: one task per row block, all independent.
			for b := 0; b < blocks; b++ {
				rt.Add(fmt.Sprintf("matvec%d", b), blockTime,
					ompss.Access{Obj: fmt.Sprintf("q%d", b), Mode: ompss.Out})
			}
			// Dot-product reduction: each block folds into a shared
			// accumulator (serialized by the inout dependency).
			for b := 0; b < blocks; b++ {
				rt.Add(fmt.Sprintf("dot%d", b), blockTime/8,
					ompss.Access{Obj: fmt.Sprintf("q%d", b), Mode: ompss.In},
					ompss.Access{Obj: "acc", Mode: ompss.InOut})
			}
			// Vector update: per block, depends on the full reduction.
			for b := 0; b < blocks; b++ {
				rt.Add(fmt.Sprintf("axpy%d", b), blockTime/2,
					ompss.Access{Obj: "acc", Mode: ompss.In},
					ompss.Access{Obj: fmt.Sprintf("x%d", b), Mode: ompss.Out})
			}
			rt.Taskwait(p)
			end = p.Now()
		})
		k.Run()
		if cores == 1 {
			seq = end
		}
		row := IntraNodeRow{Cores: cores, Makespan: end}
		if seq > 0 {
			row.Speedup = float64(seq) / float64(end)
		}
		rows = append(rows, row)
	}
	return rows
}

// IntraNodeTable is the study's speedup table.
func IntraNodeTable(rows []IntraNodeRow) *Table {
	t := &Table{Title: "Intra-node OmpSs tasking: CG-style iteration task graph", Cols: []Col{
		{"cores", 5}, {"makespan(ms)", 14}, {"speedup", 9},
	}}
	for _, r := range rows {
		t.Row(fmt.Sprint(r.Cores), num(r.Makespan.Seconds()*1000, 2), num(r.Speedup, 2))
	}
	return t
}
