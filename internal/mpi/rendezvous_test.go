package mpi

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// Back-to-back collectives on one communicator: when collective k
// completes, the first rank to resume enters k+1 before the others have
// resumed from k and read k's result. Every rank must still read the
// result of its own collective, from whichever rendezvous state serves
// it.
func TestBackToBackCollectivesKeepTheirResults(t *testing.T) {
	const p = 4
	c := testCluster(p)
	w := NewWorld(c, c.Nodes[:p])
	var resumes, log []string
	c.K.Trace = func(at sim.Time, name string) {
		resumes = append(resumes, fmt.Sprintf("%s@%dus", name, at.Microseconds()))
	}
	got := make([][3]float64, p)
	w.Start("job", func(r *Rank) {
		colls := [3]func() float64{
			func() float64 { return r.Bcast(0, 100.0*float64(1-r.Rank()), 8).(float64) },
			func() float64 { return r.AllreduceScalar(OpSum, float64(r.Rank()+1)) },
			func() float64 { return r.Bcast(0, 300.0*float64(1-r.Rank()), 8).(float64) },
		}
		for k, coll := range colls {
			log = append(log, fmt.Sprintf("r%d enter %d", r.Rank(), k))
			got[r.Rank()][k] = coll()
			log = append(log, fmt.Sprintf("r%d left %d", r.Rank(), k))
		}
	})
	c.K.Run()
	for rank, g := range got {
		if g != [3]float64{100, 10, 300} {
			t.Errorf("rank %d read %v, want [100 10 300]", rank, g)
		}
	}
	// r0 enters collective k+1 before r1..r3 have left k.
	var wantLog []string
	for r := 0; r < p; r++ {
		wantLog = append(wantLog, fmt.Sprintf("r%d enter 0", r))
	}
	for k := 0; k < 3; k++ {
		for r := 0; r < p; r++ {
			wantLog = append(wantLog, fmt.Sprintf("r%d left %d", r, k))
			if k < 2 {
				wantLog = append(wantLog, fmt.Sprintf("r%d enter %d", r, k+1))
			}
		}
	}
	if fmt.Sprint(log) != fmt.Sprint(wantLog) {
		t.Errorf("log %v, want %v", log, wantLog)
	}
	// An 8-byte Bcast over 4 ranks costs 2 levels of 1 ms latency; the
	// allreduce costs twice that.
	wantResumes := "[job/r0@0us job/r1@0us job/r2@0us job/r3@0us " +
		"job/r0@2000us job/r1@2000us job/r2@2000us job/r3@2000us " +
		"job/r0@6000us job/r1@6000us job/r2@6000us job/r3@6000us " +
		"job/r0@8000us job/r1@8000us job/r2@8000us job/r3@8000us]"
	if fmt.Sprint(resumes) != wantResumes {
		t.Errorf("resumes %v, want %s", resumes, wantResumes)
	}
	// Events: four spawns, three completion timers and twelve wakes.
	if ev := c.K.Events(); ev != 19 {
		t.Errorf("Events() = %d, want 19", ev)
	}
}

// TestBcastRendezvousDoesNotAllocate guards the per-check path of the
// DMR runtime: a warm 8-rank Bcast of a pointer payload allocates
// nothing, in the kernel or in the rendezvous.
func TestBcastRendezvousDoesNotAllocate(t *testing.T) {
	const p, rounds = 8, 200
	c := testCluster(p)
	w := NewWorld(c, c.Nodes[:p])
	payload := new(int)
	left := 0
	w.Start("job", func(r *Rank) {
		var data any
		if r.Rank() == 0 {
			data = payload
		}
		for i := 0; i < rounds; i++ {
			if r.Bcast(0, data, 16).(*int) != payload {
				t.Error("Bcast returned another payload")
			}
			left++
		}
	})
	round := func() {
		for want := left + p; left < want; {
			c.K.Step()
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("%v allocations per collective, want 0", n)
	}
	c.K.Run()
}
