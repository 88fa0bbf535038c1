package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

// traceResumes records every process resume as "name@seconds".
func traceResumes(k *Kernel) *[]string {
	var got []string
	k.Trace = func(t Time, name string) { got = append(got, fmt.Sprintf("%s@%g", name, t.Seconds())) }
	return &got
}

// checkRun compares a drained kernel's resume trace and event count.
func checkRun(t *testing.T, k *Kernel, resumes *[]string, wantResumes string, wantEvents uint64) {
	t.Helper()
	if got := fmt.Sprint(*resumes); got != wantResumes {
		t.Errorf("resumes %s, want %s", got, wantResumes)
	}
	if got := k.Events(); got != wantEvents {
		t.Errorf("Events() = %d, want %d", got, wantEvents)
	}
	if live := k.LiveProcs(); len(live) != 0 {
		t.Errorf("processes still live: %v", live)
	}
}

func TestEventEntryIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Fatalf("calendar entry is %d bytes, want 32", n)
	}
}

// A Kill that lands after a Fire already scheduled the victim's wake
// unwinds the victim at that wake; the kill's own wake then finds the
// process done and resumes nothing, though it still counts as an event.
func TestKillWhileFireWakePending(t *testing.T) {
	k := NewKernel()
	resumes := traceResumes(k)
	s := NewSignal(k)
	var order []string
	victim := k.Spawn("victim", func(p *Proc) {
		p.OnExit(func() { order = append(order, "victim exit") })
		s.Wait(p)
		order = append(order, "victim past Wait") // must not run
	})
	k.Spawn("other", func(p *Proc) {
		s.Wait(p)
		order = append(order, fmt.Sprintf("other woke@%g", p.Now().Seconds()))
	})
	k.At(Second, func() {
		s.Fire()
		victim.Kill()
	})
	k.Run()
	if got, want := fmt.Sprint(order), "[victim exit other woke@1]"; got != want {
		t.Errorf("order %s, want %s", got, want)
	}
	// Events: two spawns, the At, two Fire wakes and the kill's wake.
	checkRun(t, k, resumes, "[victim@0 other@0 victim@1 other@1]", 6)
}

func TestQueuePushReachesParkedWaiter(t *testing.T) {
	k := NewKernel()
	resumes := traceResumes(k)
	q := NewQueue(k)
	var got []string
	for _, name := range []string{"c1", "c2"} {
		k.Spawn(name, func(p *Proc) {
			v := q.Pop(p)
			got = append(got, fmt.Sprintf("%s:%v@%g", p.Name(), v, p.Now().Seconds()))
		})
	}
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(2 * Second)
		q.Push("x")
		q.Push("y")
		q.Push("z") // no waiter left: queued
	})
	k.Run()
	if want := "[c1:x@2 c2:y@2]"; fmt.Sprint(got) != want {
		t.Errorf("popped %v, want %s", got, want)
	}
	if q.Len() != 1 {
		t.Errorf("queue holds %d items, want 1", q.Len())
	}
	// Events: three spawns, the producer's sleep and two Push wakes.
	checkRun(t, k, resumes, "[c1@0 c2@0 producer@0 producer@2 c1@2 c2@2]", 6)
}

// A timed wait ended by its object must not let its timer resume the
// process's next wait, whatever object that wait is on.
func TestStaleTimeoutDoesNotResumeLaterWait(t *testing.T) {
	k := NewKernel()
	resumes := traceResumes(k)
	s1, s2, s3 := NewSignal(k), NewSignal(k), NewSignal(k)
	q := NewQueue(k)
	var got []string
	note := func(p *Proc, what string) { got = append(got, fmt.Sprintf("%s@%g", what, p.Now().Seconds())) }
	k.Spawn("p", func(p *Proc) {
		note(p, fmt.Sprint("signal ", s1.WaitTimeout(p, 10*Second)))
		s2.Wait(p) // the 10 s timer above fires during this wait
		note(p, "s2")
		v, ok := q.PopTimeout(p, 10*Second)
		note(p, fmt.Sprint("pop ", v, " ", ok))
		s3.Wait(p) // the PopTimeout timer fires at 40 s, during this wait
		note(p, "s3")
	})
	k.At(1*Second, s1.Fire)
	k.At(20*Second, s2.Fire)
	k.At(21*Second, func() { q.Push("v") })
	k.At(50*Second, s3.Fire)
	k.Run()
	if want := "[signal true@1 s2@20 pop v true@21 s3@50]"; fmt.Sprint(got) != want {
		t.Errorf("got %v, want %s", got, want)
	}
	// Events: the spawn, four Ats, four wakes and the two stale timers.
	checkRun(t, k, resumes, "[p@0 p@1 p@20 p@21 p@50]", 11)
}

// wantNoAllocs fails if a warm call of f allocates: AllocsPerRun makes
// one uncounted warming call first.
func wantNoAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s: %v allocations per call, want 0", what, n)
	}
}

func TestSleepDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	const rounds = 200
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Sleep(Second)
		}
	})
	k.Step() // the spawn
	wantNoAllocs(t, "Sleep", func() { k.Step() })
	k.Run()
}

func TestSignalWaitFireDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	const rounds = 200
	s := NewSignal(k)
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			s.Wait(p)
		}
	})
	k.Spawn("firer", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Sleep(Second)
			s.Fire()
			s.Reset()
		}
	})
	k.RunUntil(0)
	wantNoAllocs(t, "Signal Wait/Fire cycle", func() { k.RunUntil(k.Now() + Second) })
	k.Run()
}
