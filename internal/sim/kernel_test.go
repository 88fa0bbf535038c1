package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Second)
		woke = p.Now()
	})
	k.Run()
	if woke != 5*Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if k.Now() != 5*Second {
		t.Fatalf("clock at %v, want 5s", k.Now())
	}
}

func TestSleepNegativeClampsToZero(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Spawn("p", func(p *Proc) {
		p.Sleep(-3 * Second)
		woke = p.Now()
	})
	k.Run()
	if woke != 0 {
		t.Fatalf("woke at %v, want 0", woke)
	}
}

func TestEventOrderingSameInstant(t *testing.T) {
	k := NewKernel()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.At(Second, func() { order = append(order, name) })
	}
	k.Run()
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("order %q, want abc (FIFO at equal times)", got)
	}
}

func TestInterleavedSleepers(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("slow", func(p *Proc) {
		p.Sleep(3 * Second)
		order = append(order, "slow")
	})
	k.Spawn("fast", func(p *Proc) {
		p.Sleep(1 * Second)
		order = append(order, "fast1")
		p.Sleep(1 * Second)
		order = append(order, "fast2")
	})
	k.Run()
	want := []string{"fast1", "fast2", "slow"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	var woke []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		k.Spawn(name, func(p *Proc) {
			s.Wait(p)
			woke = append(woke, p.Name())
		})
	}
	k.Spawn("firer", func(p *Proc) {
		p.Sleep(2 * Second)
		s.Fire()
	})
	k.Run()
	if len(woke) != 3 {
		t.Fatalf("woke %v, want 3 waiters", woke)
	}
	if k.Now() != 2*Second {
		t.Fatalf("clock %v, want 2s", k.Now())
	}
}

func TestSignalWaitAfterFireReturnsImmediately(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	s.Fire()
	var at Time = -1
	k.Spawn("late", func(p *Proc) {
		s.Wait(p)
		at = p.Now()
	})
	k.Run()
	if at != 0 {
		t.Fatalf("late waiter resumed at %v, want 0", at)
	}
}

func TestSignalWaitTimeout(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	var fired, timedOut bool
	k.Spawn("w1", func(p *Proc) {
		fired = s.WaitTimeout(p, 10*Second)
	})
	k.Spawn("w2", func(p *Proc) {
		timedOut = !s.WaitTimeout(p, 1*Second)
	})
	k.Spawn("firer", func(p *Proc) {
		p.Sleep(5 * Second)
		s.Fire()
	})
	k.Run()
	if !fired {
		t.Fatal("w1 should have seen the signal fire before its deadline")
	}
	if !timedOut {
		t.Fatal("w2 should have timed out before the fire")
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	k := NewKernel()
	q := NewQueue(k)
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p).(int))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(Second)
			q.Push(i)
		}
	})
	k.Run()
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	k := NewKernel()
	q := NewQueue(k)
	var ok1, ok2 bool
	k.Spawn("consumer", func(p *Proc) {
		_, ok1 = q.PopTimeout(p, Second)    // nothing arrives: timeout
		_, ok2 = q.PopTimeout(p, 10*Second) // arrives at t=5s
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(5 * Second)
		q.Push("x")
	})
	k.Run()
	if ok1 {
		t.Fatal("first pop should time out")
	}
	if !ok2 {
		t.Fatal("second pop should receive the item")
	}
}

func TestQueueTryPop(t *testing.T) {
	k := NewKernel()
	q := NewQueue(k)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue should fail")
	}
	q.Push(7)
	v, ok := q.TryPop()
	if !ok || v.(int) != 7 {
		t.Fatalf("TryPop = %v,%v; want 7,true", v, ok)
	}
}

func TestResourceLimitsConcurrency(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 2)
	var maxBusy, busy int
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("user%d", i), func(p *Proc) {
			r.Acquire(p)
			busy++
			if busy > maxBusy {
				maxBusy = busy
			}
			p.Sleep(Second)
			busy--
			r.Release()
		})
	}
	k.Run()
	if maxBusy != 2 {
		t.Fatalf("max concurrent holders %d, want 2", maxBusy)
	}
	if k.Now() != 3*Second {
		t.Fatalf("5 users × 1s at cap 2 should take 3s, got %v", k.Now())
	}
}

func TestCounterWait(t *testing.T) {
	k := NewKernel()
	c := NewCounter(k)
	c.Add(3)
	var doneAt Time = -1
	k.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := Time(i) * Second
		k.At(d, func() { c.Done() })
	}
	k.Run()
	if doneAt != 3*Second {
		t.Fatalf("counter released at %v, want 3s", doneAt)
	}
}

func TestProcExitSkipsRest(t *testing.T) {
	k := NewKernel()
	reached := false
	exited := false
	k.Spawn("p", func(p *Proc) {
		p.OnExit(func() { exited = true })
		p.Exit()
		reached = true // must not run
	})
	k.Run()
	if reached {
		t.Fatal("code after Exit ran")
	}
	if !exited {
		t.Fatal("OnExit hook did not run")
	}
}

func TestKillUnblocksWaiter(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	cleaned := false
	victim := k.Spawn("victim", func(p *Proc) {
		p.OnExit(func() { cleaned = true })
		s.Wait(p) // blocks forever; killed below
		t.Error("victim resumed past Wait after kill")
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(Second)
		victim.Kill()
	})
	k.Run()
	if !cleaned {
		t.Fatal("victim did not unwind and run OnExit")
	}
	if !victim.Done() {
		t.Fatal("victim not marked done")
	}
}

func TestKillDuringSleepUnwindsAtTimer(t *testing.T) {
	k := NewKernel()
	cleaned := false
	reached := false
	victim := k.Spawn("victim", func(p *Proc) {
		p.OnExit(func() { cleaned = true })
		p.Sleep(10 * Second)
		reached = true // must not run: killed mid-sleep
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(Second)
		victim.Kill()
	})
	k.Run()
	if reached {
		t.Fatal("victim survived its kill")
	}
	if !cleaned {
		t.Fatal("victim never unwound")
	}
}

func TestKillIdempotentAndAfterDone(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("p", func(p *Proc) {})
	k.Run()
	p.Kill() // already done: must be a no-op
	p.Kill()
	if !p.Done() {
		t.Fatal("done flag lost")
	}
}

func TestStopPausesRun(t *testing.T) {
	k := NewKernel()
	var hits []Time
	k.At(Second, func() { hits = append(hits, Second); k.Stop() })
	k.At(2*Second, func() { hits = append(hits, 2*Second) })
	k.Run()
	if len(hits) != 1 {
		t.Fatalf("Stop did not pause: %d events ran", len(hits))
	}
	k.Run() // resumes with remaining events
	if len(hits) != 2 {
		t.Fatalf("second Run did not resume: %d events", len(hits))
	}
}

func TestPanicInProcPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("bad", func(p *Proc) { panic("boom") })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("expected boom panic, got %v", r)
		}
	}()
	k.Run()
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	k := NewKernel()
	var hits []Time
	for _, d := range []Time{Second, 2 * Second, 5 * Second} {
		d := d
		k.At(d, func() { hits = append(hits, d) })
	}
	k.RunUntil(3 * Second)
	if len(hits) != 2 {
		t.Fatalf("executed %d events, want 2", len(hits))
	}
	if k.Now() != 3*Second {
		t.Fatalf("clock %v, want 3s", k.Now())
	}
	k.Run()
	if len(hits) != 3 {
		t.Fatalf("executed %d events after Run, want 3", len(hits))
	}
}

func TestLiveProcsDetectsDeadlock(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	k.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	k.Run()
	live := k.LiveProcs()
	if len(live) != 1 || live[0] != "stuck" {
		t.Fatalf("LiveProcs = %v, want [stuck]", live)
	}
}

// runScenario runs a randomized but seeded mix of sleeps and queue traffic
// and returns the resume trace. Used to check determinism.
func runScenario(seed int64) []string {
	k := NewKernel()
	var trace []string
	k.Trace = func(t Time, what string) {
		trace = append(trace, fmt.Sprintf("%d:%s", t, what))
	}
	rng := rand.New(rand.NewSource(seed))
	q := NewQueue(k)
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("p%d", i)
		delay := Time(rng.Intn(1000)) * Millisecond
		k.Spawn(name, func(p *Proc) {
			p.Sleep(delay)
			q.Push(p.Name())
			p.Sleep(delay / 2)
		})
	}
	k.Spawn("drain", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Pop(p)
		}
	})
	k.Run()
	return trace
}

func TestDeterminism(t *testing.T) {
	a := runScenario(42)
	b := runScenario(42)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("two runs with the same seed produced different traces")
	}
	c := runScenario(43)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds unexpectedly produced identical traces")
	}
}

func TestManyProcsStress(t *testing.T) {
	k := NewKernel()
	const n = 2000
	done := 0
	for i := 0; i < n; i++ {
		d := Time(i%97) * Millisecond
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(d)
			done++
		})
	}
	k.Run()
	if done != n {
		t.Fatalf("finished %d, want %d", done, n)
	}
}

// mustPanic runs f and returns the text of the panic it raises.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

func TestKernelContextMisusePanics(t *testing.T) {
	cases := []struct {
		name  string
		build func(k *Kernel)
		want  []string // substrings of the panic message
	}{
		{
			name: "victim.Sleep from an event fn",
			build: func(k *Kernel) {
				s := NewSignal(k)
				victim := k.Spawn("victim", func(p *Proc) { s.Wait(p) })
				k.At(Second, func() { victim.Sleep(Second) })
			},
			want: []string{`process "victim" blocked outside its own context`},
		},
		{
			name: "victim.Sleep from another process",
			build: func(k *Kernel) {
				s := NewSignal(k)
				victim := k.Spawn("victim", func(p *Proc) { s.Wait(p) })
				k.Spawn("intruder", func(p *Proc) { victim.Sleep(Second) })
			},
			want: []string{`process "intruder" panicked`, `process "victim" blocked outside its own context`},
		},
		{
			name: "k.Step from inside a process",
			build: func(k *Kernel) {
				k.Spawn("nester", func(p *Proc) { k.Step() })
				k.Spawn("other", func(p *Proc) {})
			},
			want: []string{`process "other" dispatched while process "nester" is running`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			tc.build(k)
			msg := mustPanic(t, k.Run)
			for _, w := range tc.want {
				if !strings.Contains(msg, w) {
					t.Errorf("panic %q does not contain %q", msg, w)
				}
			}
		})
	}
}

// goroutineIDs returns the IDs of the goroutines a full stack dump
// shows. IDs are never reused, so a goroutine missing from an earlier
// dump was started since. Under the race detector runtime.NumGoroutine
// can still count a goroutine of an earlier test that the dump no
// longer shows, so comparing counts flakes where comparing IDs does not.
func goroutineIDs() map[string]bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := make(map[string]bool)
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "goroutine" {
			ids[f[1]] = true
		}
	}
	return ids
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	before := goroutineIDs()
	k := NewKernel()
	spawn := func(i int) {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Time(i%7) * Millisecond)
			if i%3 == 0 {
				p.Exit()
			}
			p.Yield()
		})
	}
	for i := 0; i < 500; i++ {
		spawn(i)
	}
	// A second wave after the first has finished runs on its coroutines.
	k.At(Second, func() {
		for i := 500; i < 1000; i++ {
			spawn(i)
		}
	})
	k.Run()
	if live := k.LiveProcs(); len(live) != 0 {
		t.Fatalf("%d processes still live", len(live))
	}
	for id := range goroutineIDs() {
		if !before[id] {
			t.Fatalf("goroutine %s started by the kernel is still running after Run", id)
		}
	}
}

func TestSpawnFromProcessRunsAfterQueuedEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(Second, func() { order = append(order, "event") })
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(Second)
		order = append(order, "parent")
		k.Spawn("child", func(c *Proc) {
			order = append(order, fmt.Sprintf("child@%v", c.Now().Seconds()))
		})
		order = append(order, "parent after Spawn")
	})
	k.Spawn("sibling", func(p *Proc) {
		p.Sleep(Second)
		order = append(order, "sibling")
	})
	k.Run()
	want := "[event parent parent after Spawn sibling child@1]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
}

func TestOnExitRunsOnEveryExitPath(t *testing.T) {
	cases := []struct {
		name   string
		body   func(p *Proc)
		kill   bool // killed by an event at 1s while blocked
		panics bool
	}{
		{name: "return", body: func(p *Proc) {}},
		{name: "Exit", body: func(p *Proc) { p.Exit() }},
		{name: "Kill", body: func(p *Proc) { NewSignal(p.Kernel()).Wait(p) }, kill: true},
		{name: "panic", body: func(p *Proc) { panic("boom") }, panics: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			var order []string
			next := func() { order = append(order, "next event") }
			victim := k.Spawn("victim", func(p *Proc) {
				p.OnExit(func() { order = append(order, "exit1") })
				p.OnExit(func() { order = append(order, "exit2") })
				if !tc.kill {
					k.At(p.Now(), next)
				}
				tc.body(p)
			})
			if tc.kill {
				k.At(Second, func() {
					victim.Kill()
					k.At(k.Now(), next)
				})
			}
			want := "[exit1 exit2 next event]"
			if tc.panics {
				if msg := mustPanic(t, k.Run); !strings.Contains(msg, "boom") {
					t.Fatalf("panic %q does not carry the process's panic", msg)
				}
				want = "[exit1 exit2]"
			} else {
				k.Run()
			}
			if got := fmt.Sprint(order); got != want {
				t.Fatalf("order %s, want %s", got, want)
			}
		})
	}
}
