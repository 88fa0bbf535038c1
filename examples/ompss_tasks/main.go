// OmpSs intra-node tasking: the other half of the paper's programming
// model. One CG-style iteration is expressed as a task graph with
// in/out/inout dependencies (mat-vec blocks, a serialized dot-product
// reduction, dependent vector updates) and executed on a simulated
// 2×8-core node — the same Nanos++ machinery whose offload side drives
// the DMR reconfigurations.
//
//	go run ./examples/ompss_tasks
package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	rows := experiments.IntraNode([]int{1, 2, 4, 8, 16}, 32, 4*sim.Millisecond)
	fmt.Print(experiments.IntraNodeTable(rows).Text())
	fmt.Println()
	fmt.Println("speedup saturates as the serialized reduction chain dominates —")
	fmt.Println("the Amdahl behaviour folded into the per-rank step-time models")
	fmt.Println("(DESIGN.md §5) when workload experiments charge iteration costs.")
}
