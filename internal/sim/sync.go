package sim

// enlist starts a new wait for p on the waiter list ws and returns the
// wait's generation.
func (p *Proc) enlist(ws *[]*Proc) uint64 {
	p.parked = true
	p.settled = false
	p.waitGen++
	*ws = append(*ws, p)
	return p.waitGen
}

// park yields until the wait begun by enlist is woken, and returns the
// wake.
func (p *Proc) park() wake {
	wk := p.block()
	p.parked = false
	return wk
}

// wakeWaiter schedules p's wait to resume with wk at the current time,
// unless that wait was already woken or cancelled.
func wakeWaiter(k *Kernel, p *Proc, wk wake) {
	if p.settled {
		return
	}
	p.settled = true
	p.wake = wk
	k.wakeAt(k.now, p)
}

// timeout returns the timer of wait gen of p on the waiter list ws:
// unless that wait ended first, it unlists p and resumes it with a
// timeout. Every wait has a later generation than the one before, so a
// timer whose wait was woken cannot resume a later wait of the process.
func timeout(p *Proc, gen uint64, ws *[]*Proc) func() {
	return func() {
		if p.waitGen != gen || p.settled {
			return
		}
		p.settled = true
		for i, x := range *ws {
			if x == p {
				*ws = append((*ws)[:i], (*ws)[i+1:]...)
				break
			}
		}
		p.wake = wake{timeout: true}
		p.k.dispatch(p)
	}
}

// Signal is a one-shot latch: Fire wakes all current and future waiters.
// The zero value is not usable; create with NewSignal.
type Signal struct {
	k       *Kernel
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired Signal.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Fire latches the signal and wakes every waiter. Subsequent Waits return
// immediately. Safe to call from kernel or process context; idempotent.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, p := range s.waiters {
		wakeWaiter(s.k, p, wake{})
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0] // keep the array for the next round
}

// Reset re-arms a fired signal, so later Waits block until the next
// Fire. Fire leaves no waiter listed, so a reset signal starts empty;
// reusing one avoids a Signal per round of a repeated rendezvous.
func (s *Signal) Reset() { s.fired = false }

// Wait blocks p until the signal fires. Returns immediately if already
// fired.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	p.enlist(&s.waiters)
	p.park()
}

// WaitTimeout blocks p until the signal fires or d elapses. It reports
// whether the signal fired (true) or the wait timed out (false).
func (s *Signal) WaitTimeout(p *Proc, d Time) bool {
	if s.fired {
		return true
	}
	p.k.After(d, timeout(p, p.enlist(&s.waiters), &s.waiters))
	return !p.park().timeout
}

// Queue is an unbounded FIFO message queue. Push never blocks; Pop blocks
// until an item is available.
type Queue struct {
	k       *Kernel
	items   []any
	waiters []*Proc
}

// NewQueue returns an empty queue.
func NewQueue(k *Kernel) *Queue { return &Queue{k: k} }

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Push appends v. If a process is blocked in Pop, the oldest waiter
// receives v directly. Safe from kernel or process context.
func (q *Queue) Push(v any) {
	for len(q.waiters) > 0 {
		p := q.waiters[0]
		q.waiters = q.waiters[1:]
		if p.settled {
			continue
		}
		wakeWaiter(q.k, p, wake{val: v})
		return
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the oldest item, blocking p until one exists.
func (q *Queue) Pop(p *Proc) any {
	if len(q.items) > 0 {
		v := q.items[0]
		q.items = q.items[1:]
		return v
	}
	p.enlist(&q.waiters)
	return p.park().val
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue) TryPop() (any, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// PopTimeout is Pop with a deadline. ok is false if d elapsed first.
func (q *Queue) PopTimeout(p *Proc, d Time) (v any, ok bool) {
	if len(q.items) > 0 {
		v = q.items[0]
		q.items = q.items[1:]
		return v, true
	}
	p.k.After(d, timeout(p, p.enlist(&q.waiters), &q.waiters))
	wk := p.park()
	if wk.timeout {
		return nil, false
	}
	return wk.val, true
}

// Resource is a counting semaphore used to model contended hardware such
// as a parallel filesystem's service slots. Acquire blocks while all
// slots are in use; waiters are served FIFO.
type Resource struct {
	k       *Kernel
	cap     int
	inUse   int
	waiters []*Proc
}

// NewResource returns a resource with capacity slots (at least 1).
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{k: k, cap: capacity}
}

// InUse reports the number of held slots. A slot transferred to a woken
// waiter counts from the instant of the transfer, even before the waiter
// resumes.
func (r *Resource) InUse() int { return r.inUse }

// Waiting reports the number of processes parked in Acquire.
func (r *Resource) Waiting() int { return len(r.waiters) }

// Acquire takes one slot, blocking p until one is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap {
		r.inUse++
		return
	}
	p.enlist(&r.waiters)
	p.park()
	// The releaser transferred its slot to us; inUse stays constant.
}

// Release frees one slot, waking the oldest waiter if any. Safe from
// kernel or process context.
func (r *Resource) Release() {
	for len(r.waiters) > 0 {
		p := r.waiters[0]
		r.waiters = r.waiters[1:]
		if p.settled {
			continue
		}
		wakeWaiter(r.k, p, wake{})
		return
	}
	if r.inUse > 0 {
		r.inUse--
	}
}

// Counter is a WaitGroup analog in virtual time: Add increments, Done
// decrements, and Wait blocks until the count reaches zero.
type Counter struct {
	k     *Kernel
	count int
	zero  *Signal
}

// NewCounter returns a counter at zero.
func NewCounter(k *Kernel) *Counter { return &Counter{k: k} }

// Add increases the count by n.
func (c *Counter) Add(n int) { c.count += n }

// Count returns the current count.
func (c *Counter) Count() int { return c.count }

// Done decrements the count; at zero it releases all waiters.
func (c *Counter) Done() {
	c.count--
	if c.count <= 0 && c.zero != nil {
		c.zero.Fire()
		c.zero = nil
	}
}

// Wait blocks p until the count reaches zero. Returns immediately if the
// count is already zero or negative.
func (c *Counter) Wait(p *Proc) {
	if c.count <= 0 {
		return
	}
	if c.zero == nil {
		c.zero = NewSignal(c.k)
	}
	c.zero.Wait(p)
}
