package sim

import "fmt"

// Proc is a simulation process: a goroutine that advances only when the
// event loop hands it control and that parks itself whenever it blocks on a
// virtual-time primitive. At most one process (or event callback) runs at a
// time, so simulations remain deterministic even though processes are real
// goroutines under the hood.
//
// A parking process does not hand control back at once. Within a Run or
// RunUntil it executes due events on its own goroutine, in the same order
// the loop would: plain callbacks, and its own wakeup, after which it simply
// continues. It hands control back only when the next event is another
// process's wakeup, is past the run's horizon, or a callback panics, or
// when the queue is empty. A single process among callbacks therefore
// switches goroutines about once per RunUntil instead of twice per park.
//
// Processes model the paper's stackful coroutines: a Paella job adaptor is
// written as straight-line code calling blocking "CUDA" operations, and each
// blocking call yields control back to the dispatcher's event loop (§4.2,
// Fig. 7).
type Proc struct {
	env    *Env
	name   string
	resume chan struct{}
	parked chan struct{}
	done   bool
}

// waker is a Proc as the context of its wakeup event. The type is
// unexported, so no other package can schedule an event with it: an event
// whose context is a *waker is always a wakeProc wakeup, and the inline loop
// recognises one by that type alone.
type waker Proc

// wakeProc is the typed event that resumes a parked process.
func wakeProc(ctx any, _ uint64) { (*Proc)(ctx.(*waker)).dispatch() }

// wakeAfter schedules p's wakeup d from now. The typed record holds p
// inline, so a wakeup allocates nothing.
func (p *Proc) wakeAfter(d Time) { p.env.DoCallAfter(d, wakeProc, (*waker)(p), 0) }

// Spawn starts fn as a new simulation process. The process begins running
// at the current virtual time, after the currently-executing event returns.
// The name appears in panic messages only.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		env:    e,
		name:   name,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
	}
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				p.env.procPanic = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
				p.env.hasPanic = true
			}
			p.done = true
			p.parked <- struct{}{}
		}()
		fn(p)
	}()
	p.wakeAfter(0)
	return p
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// dispatch transfers control to the process goroutine and blocks until the
// process hands it back (or finishes). It must only be called from the
// event loop's own goroutine, never from events run inline by a parked
// process: nobody would read the channels.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	p.env.handoffs++
	p.resume <- struct{}{}
	<-p.parked
}

// park suspends the process until its wakeup event. The process must have
// arranged (before calling park) for some future event to wake it, or it
// will never run again. Due events run inline first (see runParked); only
// if they stop short of p's own wakeup does control change goroutine.
func (p *Proc) park() {
	if p.env.runParked(p) {
		return
	}
	p.parked <- struct{}{}
	<-p.resume
}

// runParked executes due events on the goroutine of p, which is about to
// park, and reports whether it consumed p's own wakeup — in which case p
// continues with no goroutine switch. Otherwise it leaves the next event
// queued and returns false for the loop goroutine to take over, at:
//
//   - another process's wakeup. Its dispatch would block on a channel no
//     goroutine reads, since the loop goroutine is blocked in a dispatch
//     of its own; only the loop goroutine may run it.
//   - an event past the horizon, or an empty queue.
//   - a callback panic, recorded for the loop goroutine to re-raise with
//     its original value.
func (e *Env) runParked(p *Proc) (own bool) {
	inCallback := false
	defer func() {
		if inCallback {
			if r := recover(); r != nil {
				e.procPanic, e.hasPanic = r, true
			}
		}
	}()
	for {
		i := e.next()
		if i < 0 {
			return false
		}
		r := &e.arena.recs[i]
		if r.at > e.horizon {
			return false
		}
		if w, ok := r.ctx.(*waker); ok {
			if (*Proc)(w) != p {
				return false
			}
			e.take(i)
			return true
		}
		fn, cb, ctx, arg := e.take(i)
		inCallback = true
		if cb != nil {
			cb(ctx, arg)
		} else {
			fn()
		}
		inCallback = false
	}
}

// Sleep suspends the process for d virtual nanoseconds.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.wakeAfter(d)
	p.park()
}

// waiter is one party blocked on a Completion, Cond or Mutex: a parked
// process (p) or a callback (fn).
type waiter struct {
	p  *Proc
	fn func()
}

// wake schedules the waiter on e at the current time: a process as its
// typed wakeup, so a parked process's inline loop recognises it, and a
// callback as a plain event.
func (w waiter) wake(e *Env) {
	if w.p != nil {
		e.DoCallAfter(0, wakeProc, (*waker)(w.p), 0)
	} else {
		e.DoAfter(0, w.fn)
	}
}

// Completion is a one-shot event that processes and callbacks can wait on.
// It is the simulation analogue of a job-completion flag: Fire is idempotent
// and waiters registered after firing are released immediately.
type Completion struct {
	env     *Env
	fired   bool
	waiters []waiter
}

// NewCompletion returns an unfired completion bound to e.
func NewCompletion(e *Env) *Completion {
	return &Completion{env: e}
}

// Fire releases all current and future waiters. Subsequent calls are no-ops.
func (c *Completion) Fire() {
	if c.fired {
		return
	}
	c.fired = true
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		w.wake(c.env)
	}
}

// OnFire registers a callback to run (as a fresh event) when the completion
// fires; if it has already fired the callback is scheduled immediately.
func (c *Completion) OnFire(fn func()) {
	if c.fired {
		c.env.DoAfter(0, fn)
		return
	}
	c.waiters = append(c.waiters, waiter{fn: fn})
}

// Wait blocks the process until the completion fires.
func (p *Proc) Wait(c *Completion) {
	if c.fired {
		return
	}
	c.waiters = append(c.waiters, waiter{p: p})
	p.park()
}

// Cond is a repeatable broadcast condition: Broadcast wakes every process
// and callback currently waiting, and subsequent waiters block until the
// next Broadcast. Unlike sync.Cond there is no lock — the simulation is
// single-threaded by construction.
type Cond struct {
	env     *Env
	waiters []waiter
	// spare is the previous waiter slice, kept for reuse. Broadcast
	// ping-pongs waiters and spare so the wait→broadcast→re-wait cycle that
	// dominates dispatcher hot loops stops reallocating a waiter slice per
	// round: wake copies each waiter into its timer record before Broadcast
	// returns, so the old backing array is immediately reusable.
	spare []waiter
}

// NewCond returns a condition bound to e.
func NewCond(e *Env) *Cond { return &Cond{env: e} }

// Broadcast wakes all current waiters (as fresh events at the current time).
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = c.spare[:0]
	for i, w := range ws {
		w.wake(c.env)
		ws[i] = waiter{}
	}
	c.spare = ws[:0]
}

// WaitCond blocks the process until the next Broadcast on c.
func (p *Proc) WaitCond(c *Cond) {
	c.waiters = append(c.waiters, waiter{p: p})
	p.park()
}
