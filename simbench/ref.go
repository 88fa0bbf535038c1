package main

import "time"

// The host's speed is not steady: on a shared VM, other tenants slow
// memory- and scheduler-bound code by up to 2.4x for minutes at a time,
// far longer than one simulation. wall_ref divides each simulation's
// wall time by a fixed reference loop timed just before and after it,
// so a phase that slows both cancels out.

// refWorkers and refHops size the reference loop: about 0.1 s on a
// 2-vCPU VM.
const (
	refWorkers = 65
	refHops    = 150000
)

// refSink keeps the reference loop's result observable.
var refSink int

// refHandoff times a fixed loop of goroutine handoffs written in plain
// Go, independent of the repository's code: a driver resumes
// refWorkers goroutines in turn over unbuffered channels and waits for
// each to yield, the shape of the simulator's process handoff. It
// returns seconds.
func refHandoff() float64 {
	t0 := time.Now()
	yielded := make(chan struct{})
	resume := make([]chan int, refWorkers)
	for i := range resume {
		resume[i] = make(chan int)
		go func(c chan int) {
			for v := range c {
				refSink += v
				yielded <- struct{}{}
			}
		}(resume[i])
	}
	for i := 0; i < refHops; i++ {
		resume[i%refWorkers] <- i
		<-yielded
	}
	for _, c := range resume {
		close(c)
	}
	return time.Since(t0).Seconds()
}
