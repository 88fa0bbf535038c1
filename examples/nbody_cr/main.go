// N-body C/R vs DMR: reproduce the paper's Figure 1 — the non-solving
// stages of an N-body simulation resized from 48 processes to 12, 24
// and 48, comparing Checkpoint/Restart (state through the parallel
// filesystem, requeue, reload) with the DMR API (in-memory
// redistribution onto a freshly spawned process set).
//
//	go run ./examples/nbody_cr
package main

import (
	"fmt"

	"repro/internal/experiments"
)

func main() {
	rows := experiments.Fig1(experiments.Fig1Targets)
	fmt.Print(experiments.Fig1Table(rows).Text())
	fmt.Println()
	fmt.Println("paper reports spawning factors of 31.4x (48-12), 63.75x (48-24), 77x (48-48):")
	fmt.Println("the C/R bars pay the PFS round trip plus requeue; DMR redistributes in memory.")
}
