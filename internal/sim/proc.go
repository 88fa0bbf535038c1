package sim

import "fmt"

// wake carries the reason a blocked process was resumed.
type wake struct {
	val     any
	timeout bool
	killed  bool
}

// Proc is a simulated process: its body runs on a coroutine (iter.Pull)
// that the kernel resumes at each dispatch and that yields back whenever
// it blocks. All methods must be called from the process's own context
// unless documented otherwise.
//
// A process parks on at most one synchronization object at a time, so
// the waiter lives here: the object lists the *Proc, and the flags
// below describe the current wait. At most one resume is pending at a
// time; the only exception, a Kill racing an already scheduled wake,
// unwinds the process at whichever resume comes first.
type Proc struct {
	k       *Kernel
	id      int64
	name    string
	body    func(p *Proc)
	co      *coroutine // runs body; reused by a later Spawn once done
	wake    wake       // reason for the pending resume, set when scheduled
	done    bool
	killed  bool
	exitFns []func()

	parked  bool   // blocked on a synchronization object; Kill wakes it
	settled bool   // the current wait has been woken or cancelled
	waitGen uint64 // counts waits, so a stale timeout cannot act on a later one
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// block yields control to the kernel and waits to be resumed. If the
// process was killed while blocked, it unwinds immediately. Only the
// running process may block itself.
func (p *Proc) block() wake {
	if p.k.running != p {
		panic(fmt.Sprintf("sim: process %q blocked outside its own context", p.name))
	}
	p.co.yield(struct{}{})
	w := p.wake
	p.wake = wake{} // release the woken value
	if w.killed || p.killed {
		panic(exitSentinel)
	}
	return w
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep for zero time (still yielding to the scheduler once).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.wakeAt(p.k.now+d, p)
	p.block()
}

// Yield reschedules the process at the current time, letting any other
// process scheduled for this instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Exit terminates the process immediately. Deferred functions inside the
// process body do NOT run (mirroring exit(0) in the paper's Listing 1);
// functions registered with OnExit do run.
func (p *Proc) Exit() { panic(exitSentinel) }

// OnExit registers fn to run when the process terminates for any reason.
// The functions run in registration order, in the process's own context,
// before control returns to the kernel. fn must not block; it may
// schedule events.
// Safe to call from any context before the process exits.
func (p *Proc) OnExit(fn func()) { p.exitFns = append(p.exitFns, fn) }

// Kill marks the process for termination. If it is blocked on an
// interruptible wait it unwinds at its next resume; otherwise it unwinds
// at its next blocking call. Must be called from kernel or another
// process's context, not from p itself.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	// If parked on a synchronization object, wake it now so it can unwind.
	// Sleeping processes unwind when their timer fires.
	if p.parked {
		p.parked = false
		p.settled = true
		p.wake = wake{killed: true}
		p.k.wakeAt(p.k.now, p)
	}
}

// Done reports whether the process has terminated. Callable from any
// context.
func (p *Proc) Done() bool { return p.done }
