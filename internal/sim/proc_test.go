package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// The schedule oracle: a random program of processes and callbacks over
// shared Completions, Conds and Mutexes runs once under bare Step — no
// horizon, so every park hands control back to the loop goroutine, the
// historical execution — and then under every loop that lets parked
// processes run events inline. All runs must log the same (time, actor, op)
// sequence and execute the same number of events.

// Program operations. Blocking ones (sleep, wait, waitCond, lock) only
// appear in process bodies.
const (
	fzSleep = iota
	fzWait
	fzWaitCond
	fzLock
	fzUnlock
	fzSpawn
	fzAfter
	fzCancel
	fzFire
	fzBroadcast
	fzOnFire
)

var (
	fzProcOps = []int{fzSleep, fzWait, fzWaitCond, fzLock, fzSpawn, fzAfter, fzCancel, fzFire, fzBroadcast, fzOnFire}
	fzCbOps   = []int{fzSpawn, fzAfter, fzCancel, fzFire, fzBroadcast, fzOnFire}
)

const (
	fzComps     = 3
	fzConds     = 2
	fzMutexes   = 2
	fzMaxDepth  = 3
	fzMaxBodies = 40
	fzMaxOps    = 8
	// The sweeper releases every Cond and Completion from fzSweepStart on,
	// every fzSweepEvery, until no process or callback is left; so every
	// program terminates and leaves no goroutine behind.
	fzSweepStart = 64
	fzSweepEvery = 16
)

type fzOp struct {
	kind  int
	k     int  // object index, or timer slot for fzAfter/fzCancel
	d     Time // delay for fzSleep/fzAfter
	child *fzBody
}

// fzBody is the code of one actor: a process or a callback. The program is
// a tree, so each body runs at most once per run.
type fzBody struct {
	id  int
	ops []fzOp
}

type fzProgram struct {
	procs  []*fzBody // spawned at time 0
	cbs    []fzOp    // fzAfter ops scheduled at time 0
	bodies int
	slots  int // timer slots, one per fzAfter op
}

type fzReader struct {
	b []byte
	i int
}

func (r *fzReader) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	v := r.b[r.i]
	r.i++
	return int(v)
}

func decodeProgram(data []byte) *fzProgram {
	r := &fzReader{b: data}
	p := &fzProgram{}
	var cancels []*fzOp
	nprocs, ncbs := 1+r.next()%3, r.next()%4
	for i := 0; i < nprocs; i++ {
		p.procs = append(p.procs, p.body(r, 0, true, &cancels))
	}
	for i := 0; i < ncbs; i++ {
		p.cbs = append(p.cbs, p.after(r, 0, &cancels))
	}
	for _, c := range cancels {
		if p.slots == 0 {
			c.kind, c.k = fzBroadcast, c.k%fzConds
		} else {
			c.k %= p.slots
		}
	}
	return p
}

func (p *fzProgram) after(r *fzReader, depth int, cancels *[]*fzOp) fzOp {
	op := fzOp{kind: fzAfter, k: p.slots, d: Time(r.next() % 24)}
	p.slots++
	op.child = p.body(r, depth+1, false, cancels)
	return op
}

func (p *fzProgram) body(r *fzReader, depth int, proc bool, cancels *[]*fzOp) *fzBody {
	b := &fzBody{id: p.bodies}
	p.bodies++
	kinds := fzCbOps
	if proc {
		kinds = fzProcOps
	}
	held := -1
	n := r.next() % (fzMaxOps + 1)
	for j := 0; j < n; j++ {
		kind, k := kinds[r.next()%len(kinds)], r.next()
		nested := depth < fzMaxDepth && p.bodies < fzMaxBodies
		var op fzOp
		switch kind {
		case fzSleep:
			op = fzOp{kind: fzSleep, d: Time(k % 5)}
		case fzWait:
			op = fzOp{kind: fzWait, k: k % fzComps}
		case fzWaitCond:
			op = fzOp{kind: fzWaitCond, k: k % fzConds}
		case fzLock:
			// One mutex at a time per process: no lock-order cycles.
			if held >= 0 {
				op, held = fzOp{kind: fzUnlock, k: held}, -1
			} else {
				held = k % fzMutexes
				op = fzOp{kind: fzLock, k: held}
			}
		case fzSpawn, fzOnFire:
			if !nested {
				op = fzOp{kind: fzBroadcast, k: k % fzConds}
				break
			}
			op = fzOp{kind: kind, k: k % fzComps, child: p.body(r, depth+1, kind == fzSpawn, cancels)}
		case fzAfter:
			if !nested {
				op = fzOp{kind: fzFire, k: k % fzComps}
				break
			}
			op = p.after(r, depth, cancels)
		case fzCancel:
			op = fzOp{kind: fzCancel, k: k}
		case fzFire:
			op = fzOp{kind: fzFire, k: k % fzComps}
		case fzBroadcast:
			op = fzOp{kind: fzBroadcast, k: k % fzConds}
		}
		b.ops = append(b.ops, op)
	}
	if held >= 0 {
		b.ops = append(b.ops, fzOp{kind: fzUnlock, k: held})
	}
	for j := range b.ops {
		if b.ops[j].kind == fzCancel {
			*cancels = append(*cancels, &b.ops[j])
		}
	}
	return b
}

type fzEntry struct {
	at    Time
	actor int
	op    int
}

// fzRun is one execution of a program on one Env.
type fzRun struct {
	e       *Env
	comps   []*Completion
	conds   []*Cond
	mus     []*Mutex
	timers  []Timer
	armed   []bool // timer slot scheduled and neither fired nor cancelled
	live    int    // processes spawned and not finished
	pending int    // callbacks scheduled (After, OnFire) and not yet run
	log     []fzEntry
}

func (p *fzProgram) install(e *Env) *fzRun {
	x := &fzRun{e: e, timers: make([]Timer, p.slots), armed: make([]bool, p.slots)}
	for i := 0; i < fzComps; i++ {
		x.comps = append(x.comps, NewCompletion(e))
	}
	for i := 0; i < fzConds; i++ {
		x.conds = append(x.conds, NewCond(e))
	}
	for i := 0; i < fzMutexes; i++ {
		x.mus = append(x.mus, NewMutex(e))
	}
	for _, b := range p.procs {
		x.spawn(b)
	}
	for _, op := range p.cbs {
		x.after(op)
	}
	e.At(fzSweepStart, x.sweep)
	return x
}

func (x *fzRun) rec(actor, op int) {
	x.log = append(x.log, fzEntry{x.e.Now(), actor, op})
}

func (x *fzRun) exec(b *fzBody, p *Proc) {
	for j, op := range b.ops {
		x.rec(b.id, j)
		switch op.kind {
		case fzSleep:
			p.Sleep(op.d)
		case fzWait:
			p.Wait(x.comps[op.k])
		case fzWaitCond:
			p.WaitCond(x.conds[op.k])
		case fzLock:
			x.mus[op.k].Lock(p)
		case fzUnlock:
			x.mus[op.k].Unlock()
		case fzSpawn:
			x.spawn(op.child)
		case fzAfter:
			x.after(op)
		case fzCancel:
			if x.armed[op.k] {
				x.e.Cancel(x.timers[op.k])
				x.armed[op.k] = false
				x.pending--
			}
		case fzFire:
			x.comps[op.k].Fire()
		case fzBroadcast:
			x.conds[op.k].Broadcast()
		case fzOnFire:
			child := op.child
			x.pending++
			x.comps[op.k].OnFire(func() {
				x.pending--
				x.exec(child, nil)
			})
		}
	}
	x.rec(b.id, len(b.ops))
}

func (x *fzRun) spawn(b *fzBody) {
	x.live++
	x.e.Spawn(fmt.Sprintf("body%d", b.id), func(p *Proc) {
		x.exec(b, p)
		x.live--
	})
}

func (x *fzRun) after(op fzOp) {
	x.pending++
	x.armed[op.k] = true
	x.timers[op.k] = x.e.After(op.d, func() {
		x.armed[op.k] = false
		x.pending--
		x.exec(op.child, nil)
	})
}

func (x *fzRun) sweep() {
	x.rec(-1, 0)
	for _, c := range x.conds {
		c.Broadcast()
	}
	for _, c := range x.comps {
		c.Fire()
	}
	if x.live > 0 || x.pending > 0 {
		x.e.After(fzSweepEvery, x.sweep)
	}
}

// checkProcSchedule runs the program decoded from data every way and
// compares each against bare Step.
func checkProcSchedule(t *testing.T, data []byte) {
	t.Helper()
	prog := decodeProgram(data)
	ref := prog.install(NewEnv())
	for ref.e.Step() {
	}
	if ref.live != 0 || ref.pending != 0 {
		t.Fatalf("reference run left %d processes and %d callbacks", ref.live, ref.pending)
	}
	check := func(how string, x *fzRun) {
		t.Helper()
		if !reflect.DeepEqual(x.log, ref.log) {
			t.Fatalf("%s: log differs from bare Step\n got  %v\n want %v", how, x.log, ref.log)
		}
		if x.e.Steps() != ref.e.Steps() {
			t.Fatalf("%s: Steps() = %d, bare Step %d", how, x.e.Steps(), ref.e.Steps())
		}
	}

	run := prog.install(NewEnv())
	run.e.Run()
	check("Run", run)

	// RunUntil in slices of 1..8ns drawn from the program bytes.
	sliced := prog.install(NewEnv())
	for i := 0; ; i++ {
		if _, ok := sliced.e.NextEventTime(); !ok {
			break
		}
		until := sliced.e.Now() + 1 + Time(data[i%len(data)]%8)
		sliced.e.RunUntil(until)
		if sliced.e.Now() != until {
			t.Fatalf("RunUntil(%v) left the clock at %v", until, sliced.e.Now())
		}
	}
	check("RunUntil slices", sliced)

	for _, parallel := range []bool{false, true} {
		w := NewWorld()
		w.SetParallel(parallel)
		w.SetWindow(Time(data[0] % 8))
		xs := []*fzRun{prog.install(w.AddShard()), prog.install(w.AddShard())}
		w.Run()
		w.Close()
		for i, x := range xs {
			check(fmt.Sprintf("World parallel=%v shard %d", parallel, i), x)
		}
	}
}

func FuzzProcSchedule(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 3, 8, 0, 1, 1, 3, 2, 1, 4, 0, 9, 2, 7, 7, 5, 1, 3, 3})
	f.Add([]byte{1, 2, 6, 3, 0, 2, 1, 4, 1, 5, 2, 8, 0, 6, 1, 7, 2, 9, 0, 1, 1, 2, 5, 8})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244, 243, 242})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		checkProcSchedule(t, data)
	})
}

// TestProcScheduleRandom runs the schedule oracle over seeded random
// programs, so plain `go test` covers more than the fuzz seed corpus.
func TestProcScheduleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 16+rng.Intn(112))
		rng.Read(data)
		checkProcSchedule(t, data)
	}
}

// dispatcherProgram spawns one dispatcher-style process among GPU-style
// callbacks: a kernel-completion train broadcasts a notification Cond every
// 7ns, and the process waits on it, then charges 2ns of host time. It
// returns a pointer to the process's park count.
func dispatcherProgram(e *Env, rounds int) *int {
	parks := 0
	notify := NewCond(e)
	done := false
	var kernelDone func()
	kernelDone = func() {
		notify.Broadcast()
		if !done {
			e.DoAfter(7, kernelDone)
		}
	}
	e.DoAfter(7, kernelDone)
	e.Spawn("dispatcher", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			parks++
			p.WaitCond(notify)
			parks++
			p.Sleep(2)
		}
		done = true
	})
	return &parks
}

// TestHandoffsSingleProcess is the deterministic gate on goroutine
// handoffs: one process among callbacks runs the loop itself, so it is
// dispatched at most once per RunUntil, while bare Step dispatches it once
// per park (plus once to start it).
func TestHandoffsSingleProcess(t *testing.T) {
	const rounds = 200

	e := NewEnv()
	parks := dispatcherProgram(e, rounds)
	for e.Step() {
	}
	if *parks != 2*rounds || e.handoffs != uint64(*parks)+1 {
		t.Fatalf("bare Step: %d handoffs for %d parks, want parks+1", e.handoffs, *parks)
	}
	steps := e.Steps()

	e = NewEnv()
	dispatcherProgram(e, rounds)
	e.Run()
	if e.handoffs != 1 || e.Steps() != steps {
		t.Fatalf("Run: %d handoffs, %d steps; want 1 handoff, %d steps", e.handoffs, e.Steps(), steps)
	}

	e = NewEnv()
	dispatcherProgram(e, rounds)
	calls := uint64(0)
	for {
		if _, ok := e.NextEventTime(); !ok {
			break
		}
		e.RunUntil(e.Now() + 50)
		calls++
	}
	if e.handoffs > calls || e.Steps() != steps {
		t.Fatalf("RunUntil: %d handoffs over %d calls, %d steps; want ≤ 1 per call, %d steps",
			e.handoffs, calls, e.Steps(), steps)
	}
	if e.horizon != -1 {
		t.Fatalf("horizon %v after RunUntil, want -1", e.horizon)
	}
}

// inlineBoom is a panic value with identity, so tests can tell the
// original value from a wrapped one.
type inlineBoom struct{ where string }

// panicsInline arranges for a callback to panic with v while a process is
// parked in Sleep and running the loop on its own goroutine.
func panicsInline(e *Env, v any) {
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(10) })
	e.At(5, func() { panic(v) })
}

func recoverFrom(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestInlineCallbackPanic: a callback that panics while running inline on
// a parked process surfaces from RunUntil on the caller's goroutine with
// its original value, not as a process panic.
func TestInlineCallbackPanic(t *testing.T) {
	e := NewEnv()
	want := &inlineBoom{"env"}
	panicsInline(e, want)
	if got := recoverFrom(func() { e.RunUntil(100) }); got != want {
		t.Fatalf("RunUntil panicked with %#v, want the callback's value %p", got, want)
	}
	if e.handoffs != 1 || e.horizon != -1 {
		t.Fatalf("handoffs %d horizon %v; want the panic raised inline (1 handoff) and horizon -1", e.handoffs, e.horizon)
	}
}

// TestInlineCallbackPanicWorld: the same through World's parallel
// per-shard runners.
func TestInlineCallbackPanicWorld(t *testing.T) {
	w := NewWorld()
	w.SetParallel(true)
	defer w.Close()
	want := &inlineBoom{"shard 1"}
	w.AddShard().Spawn("idle", func(p *Proc) { p.Sleep(10) })
	panicsInline(w.AddShard(), want)
	if got := recoverFrom(func() { w.RunUntil(100) }); got != want {
		t.Fatalf("World.RunUntil panicked with %#v, want the callback's value %p", got, want)
	}
}

// TestInlineCallbackNilPanic: panic(nil) inline still surfaces as a panic
// (the runtime's *PanicNilError), never as a silent return or a re-raised
// nil.
func TestInlineCallbackNilPanic(t *testing.T) {
	e := NewEnv()
	panicsInline(e, nil)
	got := recoverFrom(func() { e.RunUntil(100) })
	if _, ok := got.(*runtime.PanicNilError); !ok {
		t.Fatalf("RunUntil panicked with %#v, want *runtime.PanicNilError", got)
	}
}

func broadcastCond(ctx any, _ uint64) { ctx.(*Cond).Broadcast() }

// TestProcCondWakeAllocFree: a WaitCond→Broadcast cycle between a process
// and a callback allocates nothing, whether the process runs it inline or
// is dispatched.
func TestProcCondWakeAllocFree(t *testing.T) {
	e := NewEnv()
	c := NewCond(e)
	stop := false
	e.Spawn("waiter", func(p *Proc) {
		for !stop {
			e.DoCallAfter(1, broadcastCond, c, 0)
			p.WaitCond(c)
		}
	})
	e.RunFor(100) // warm up
	avg := testing.AllocsPerRun(100, func() {
		e.RunFor(100) // 100 cycles, one dispatch
	})
	stop = true
	e.Run()
	if avg > 0 {
		t.Fatalf("WaitCond→Broadcast allocates %.2f per 100 cycles, want 0", avg)
	}
}

// BenchmarkProcSleep measures one Sleep of a lone process under Run:
// schedule, park, and resume inline.
func BenchmarkProcSleep(b *testing.B) {
	e := NewEnv()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcCondWake measures a callback/process ping-pong: the process
// schedules a callback that broadcasts the Cond it then waits on.
func BenchmarkProcCondWake(b *testing.B) {
	e := NewEnv()
	c := NewCond(e)
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.DoCallAfter(1, broadcastCond, c, 0)
			p.WaitCond(c)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
