package sim

import "fmt"

// Proc is a simulation process: a goroutine that advances only when the
// event loop hands it control and that parks itself whenever it blocks on a
// virtual-time primitive. At most one process (or event callback) runs at a
// time, so simulations remain deterministic even though processes are real
// goroutines under the hood.
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
	// dispatchFn is the preallocated wakeup closure. Sleep/Wait/WaitCond
	// run once per simulated operation on hot paths; reusing one closure
	// (and the pooled Do scheduling path) keeps wakeups allocation-free.
	dispatchFn func()
}

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
	p.dispatchFn = p.dispatch
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
	e.DoAfter(0, p.dispatchFn)
	return p
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// dispatch transfers control to the process goroutine and blocks until the
// process parks again (or finishes). It must only be called from the event
// loop (i.e., from within an event callback).
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-p.parked
}

// park suspends the process goroutine and returns control to the event
// loop. The process must have arranged (before calling park) for some future
// event to call dispatch, or it will never run again.
func (p *Proc) park() {
	p.parked <- struct{}{}
	<-p.resume
}

// Sleep suspends the process for d virtual nanoseconds.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.env.DoAfter(d, p.dispatchFn)
	p.park()
}

// Completion is a one-shot event that processes and callbacks can wait on.
// It is the simulation analogue of a job-completion flag: Fire is idempotent
// and waiters registered after firing are released immediately.
type Completion struct {
	env   *Env
	fired bool
	fns   []func()
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
	fns := c.fns
	c.fns = nil
	for _, fn := range fns {
		c.env.DoAfter(0, fn)
	}
}

// OnFire registers a callback to run (as a fresh event) when the completion
// fires; if it has already fired the callback is scheduled immediately.
func (c *Completion) OnFire(fn func()) {
	if c.fired {
		c.env.DoAfter(0, fn)
		return
	}
	c.fns = append(c.fns, fn)
}

// Wait blocks the process until the completion fires.
func (p *Proc) Wait(c *Completion) {
	if c.fired {
		return
	}
	c.fns = append(c.fns, p.dispatchFn)
	p.park()
}

// Cond is a repeatable broadcast condition: Broadcast wakes every process
// and callback currently waiting, and subsequent waiters block until the
// next Broadcast. Unlike sync.Cond there is no lock — the simulation is
// single-threaded by construction.
type Cond struct {
	env *Env
	fns []func()
	// spare is the previous waiter slice, kept for reuse. Broadcast
	// ping-pongs fns and spare so the wait→broadcast→re-wait cycle that
	// dominates dispatcher hot loops stops reallocating a waiter slice per
	// round: DoAfter copies each func value into its timer record before
	// Broadcast returns, so the old backing array is immediately reusable.
	spare []func()
}

// NewCond returns a condition bound to e.
func NewCond(e *Env) *Cond { return &Cond{env: e} }

// Broadcast wakes all current waiters (as fresh events at the current time).
func (c *Cond) Broadcast() {
	fns := c.fns
	c.fns = c.spare[:0]
	for i, fn := range fns {
		c.env.DoAfter(0, fn)
		fns[i] = nil
	}
	c.spare = fns[:0]
}

// WaitCond blocks the process until the next Broadcast on c.
func (p *Proc) WaitCond(c *Cond) {
	c.fns = append(c.fns, p.dispatchFn)
	p.park()
}
