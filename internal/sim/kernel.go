package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
)

// event is a unit of work on the kernel's calendar: either a process
// wake (p resumes with the wake stored on it) or a callback (fn runs in
// kernel context: it may mutate simulation state and resume processes,
// but it must never block). Every process wake is typed, so sleeping,
// spawning and waking allocate no closure; fn is left for At, After and
// timeout timers. The entry stays at 32 bytes.
type event struct {
	t   Time
	seq uint64
	fn  func()
	p   *Proc
}

// precedes orders events by (time, sequence number) — the kernel's total
// execution order.
func (e event) precedes(o event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// eventHeap is a hand-rolled min-heap of event values ordered by
// (time, sequence number). Values instead of pointers keep the calendar
// allocation-free: pushing reuses the slice's backing array, and popping
// zeroes the vacated slot so closures are released to the GC.
type eventHeap []event

func (h eventHeap) less(i, j int) bool { return h[i].precedes(h[j]) }

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the closure or process
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// Kernel is a discrete-event simulation engine. All access must come from
// the caller of Run, Step or RunUntil (kernel context) or from the single
// process the kernel is currently executing. Each process runs on a
// coroutine the kernel resumes and that hands control back when it
// blocks, so exactly one of them runs at a time and no further locking
// is required by users. Dispatching a process while another one runs
// (a Run, Step or RunUntil from process context) or blocking a process
// from anywhere but its own context panics.
type Kernel struct {
	now Time
	seq uint64
	// queue holds future events; imm is the same-time fast path. An
	// event scheduled at the current instant can never precede anything
	// already pending at an earlier time, and sequence numbers only
	// grow, so appending to a FIFO preserves the (t, seq) total order
	// while skipping the heap entirely — the dominant case, since every
	// process dispatch, signal wakeup and zero-delay callback lands at
	// the current time.
	queue   eventHeap
	imm     []event
	immHead int

	running  *Proc        // process being executed, nil in kernel context
	idle     []*coroutine // coroutines free for the next Spawn
	nextPID  int64
	live     map[int64]*Proc
	stopped  bool
	fatal    *procPanic
	eventCnt uint64

	// Trace, when non-nil, receives a line for every process resume.
	// Used by determinism tests.
	Trace func(t Time, what string)
}

type procPanic struct {
	proc  string
	value any
	stack []byte
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{live: make(map[int64]*Proc)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events reports how many calendar events have been executed so far.
func (k *Kernel) Events() uint64 { return k.eventCnt }

// schedule enqueues ev at time t (>= now) under the next sequence number.
func (k *Kernel) schedule(t Time, ev event) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	ev.t, ev.seq = t, k.seq
	if t == k.now {
		k.imm = append(k.imm, ev)
		return
	}
	k.queue.push(ev)
}

// wakeAt schedules p to resume at time t with the wake stored in p.wake.
func (k *Kernel) wakeAt(t Time, p *Proc) { k.schedule(t, event{p: p}) }

// At schedules fn to run at absolute virtual time t in kernel context.
// fn must not block; to run blocking code, spawn a process from fn.
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, event{fn: fn}) }

// After schedules fn to run d after the current virtual time.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Stop makes Run return after the current event completes. Pending events
// are kept, so Run may be called again to continue.
func (k *Kernel) Stop() { k.stopped = true }

// popNext removes and returns the earliest pending event if keep holds
// for its time. The imm FIFO is kept sorted by construction (times are
// the non-decreasing schedule-time clocks, sequences only grow), so its
// head and the heap top are the only candidates.
func (k *Kernel) popNext(keep func(Time) bool) (event, bool) {
	if k.immHead < len(k.imm) && (len(k.queue) == 0 || k.imm[k.immHead].precedes(k.queue[0])) {
		ev := k.imm[k.immHead]
		if !keep(ev.t) {
			return event{}, false
		}
		k.imm[k.immHead] = event{} // release the closure or process
		k.immHead++
		if k.immHead == len(k.imm) {
			k.imm = k.imm[:0]
			k.immHead = 0
		}
		return ev, true
	}
	if len(k.queue) == 0 || !keep(k.queue[0].t) {
		return event{}, false
	}
	return k.queue.pop(), true
}

// run executes pending events in (t, seq) order while keep(t) holds for
// the next event's time t.
func (k *Kernel) run(keep func(Time) bool) {
	k.stopped = false
	for !k.stopped {
		ev, ok := k.popNext(keep)
		if !ok {
			break
		}
		k.now = ev.t
		k.eventCnt++
		if ev.p != nil {
			k.dispatch(ev.p)
		} else {
			ev.fn()
		}
		if k.fatal != nil {
			f := k.fatal
			panic(fmt.Sprintf("sim: process %q panicked: %v\n%s", f.proc, f.value, f.stack))
		}
	}
	if k.Idle() {
		k.releaseIdle()
	}
}

// Run executes calendar events in order until no events remain or Stop is
// called. It panics if any simulated process panicked.
func (k *Kernel) Run() {
	k.run(func(Time) bool { return true })
}

// Step executes exactly one pending calendar event and reports whether
// one ran. Calling Step until it returns false is equivalent to Run; the
// invariant-fuzzing harness uses it to interleave whole-system checks
// between every pair of events.
func (k *Kernel) Step() bool {
	ran := false
	k.run(func(Time) bool {
		if ran {
			return false
		}
		ran = true
		return true
	})
	return ran
}

// RunUntil executes events with time <= t, then sets the clock to t.
func (k *Kernel) RunUntil(t Time) {
	k.run(func(next Time) bool { return next <= t })
	if k.now < t {
		k.now = t
	}
}

// Idle reports whether the calendar is empty.
func (k *Kernel) Idle() bool {
	return k.immHead >= len(k.imm) && len(k.queue) == 0
}

// LiveProcs returns the names of processes that have been spawned but have
// not yet exited. After Run drains the calendar, any remaining live
// processes are deadlocked on synchronization objects; tests use this to
// detect protocol bugs.
func (k *Kernel) LiveProcs() []string {
	names := make([]string, 0, len(k.live))
	for _, p := range k.live {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}

// dispatch transfers control to p, with the wake stored in p.wake, until
// it blocks or exits. It must only be called from kernel context (inside
// an event); a dispatch while a process is running means the kernel was
// re-entered from that process.
func (k *Kernel) dispatch(p *Proc) {
	if p.done {
		return
	}
	if r := k.running; r != nil {
		panic(fmt.Sprintf("sim: process %q dispatched while process %q is running: Run, Step and RunUntil must not be called from process context", p.name, r.name))
	}
	if k.Trace != nil {
		k.Trace(k.now, p.name)
	}
	k.running = p
	p.co.next()
	k.running = nil
}

var exitSentinel = new(int)

// Spawn creates a simulated process named name running fn, scheduled to
// start at the current virtual time. fn runs in process context and may
// block. When fn returns (or calls Proc.Exit) the process terminates.
// Spawn only binds fn to a coroutine, so it may be called from kernel
// or process context; fn first runs at the process's first dispatch.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	k.nextPID++
	p := &Proc{k: k, id: k.nextPID, name: name, body: fn}
	k.live[p.id] = p
	if n := len(k.idle); n > 0 {
		p.co = k.idle[n-1]
		k.idle = k.idle[:n-1]
	} else {
		p.co = k.newCoroutine()
	}
	p.co.p = p
	k.wakeAt(k.now, p)
	return p
}

// coroutine is an iter.Pull coroutine that runs process bodies one
// after another: when a body ends it parks on the kernel's idle list
// until Spawn hands it the next one. Reuse keeps Spawn to one
// allocation, the Proc, and keeps a finished process from ending a
// coroutine goroutine: under Go 1.24's race detector every ended
// coroutine leaks its race state (runtime.coroexit skips racegoend),
// which ran the experiments tests out of memory.
type coroutine struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // process it runs, nil while idle
}

func (k *Kernel) newCoroutine() *coroutine {
	c := &coroutine{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			c.p.run()
			c.p = nil
			k.idle = append(k.idle, c)
			if !yield(struct{}{}) {
				return // released by releaseIdle
			}
		}
	})
	return c
}

// releaseIdle ends every idle coroutine once the calendar has drained,
// so a finished run leaves no goroutine behind. Processes still blocked
// keep theirs, and LiveProcs reports them.
func (k *Kernel) releaseIdle() {
	for _, c := range k.idle {
		c.stop()
	}
	clear(k.idle)
	k.idle = k.idle[:0]
}

// run executes p's body in p's context. The body recovers its own
// panics: iter.Pull would re-raise them in the kernel, bypassing the
// Exit sentinel and the k.fatal report. OnExit functions run here,
// before control returns to the kernel.
func (p *Proc) run() {
	k, body := p.k, p.body
	p.body = nil // a finished Proc must not pin its closure
	defer func() {
		r := recover()
		if r != nil && r != exitSentinel {
			k.fatal = &procPanic{proc: p.name, value: r, stack: debug.Stack()}
		}
		p.done = true
		delete(k.live, p.id)
		fns := p.exitFns
		p.exitFns = nil
		for _, f := range fns {
			f()
		}
	}()
	body(p)
}
