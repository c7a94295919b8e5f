package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// qrig wires an eventQueue to its backing arena the way NewEnv does,
// letting the queue be exercised in isolation.
type qrig struct {
	a arena
	q eventQueue
}

func newQrig() *qrig {
	r := &qrig{}
	r.a.freeHead = -1
	r.q.a = &r.a
	return r
}

// qitem mirrors one pushed record in the model's own storage, so model
// entries stay readable even after a cancelled record is recycled.
type qitem struct {
	idx int32
	at  Time
	seq uint64
}

func (r *qrig) push(at Time, seq uint64) qitem {
	i := r.a.alloc()
	rec := &r.a.recs[i]
	rec.at, rec.seq = at, seq
	r.q.push(i, at, seq)
	return qitem{idx: i, at: at, seq: seq}
}

// queuePushPattern drives an eventQueue the way an Env does — strictly
// increasing seq, with bursts of repeated timestamps so that the seq
// tiebreak decides many comparisons.
func queuePushPattern(rng *rand.Rand, r *qrig, seq *uint64, n int) []qitem {
	var out []qitem
	at := Time(rng.Intn(50))
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 { // start a new run two-thirds of the time not
			at = Time(rng.Intn(50))
		}
		out = append(out, r.push(at, *seq))
		*seq++
	}
	return out
}

// TestQueuePopOrderMatchesSort: the event heap pops timers in exact
// (at, seq) order for randomized inputs — the total order every simulation
// outcome rests on.
func TestQueuePopOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		r := newQrig()
		seq := uint64(0)
		ref := queuePushPattern(rng, r, &seq, 1+rng.Intn(200))
		sort.Slice(ref, func(a, b int) bool {
			if ref[a].at != ref[b].at {
				return ref[a].at < ref[b].at
			}
			return ref[a].seq < ref[b].seq
		})
		for i, want := range ref {
			got := r.q.pop()
			if got != want.idx {
				rec := &r.a.recs[got]
				t.Fatalf("trial %d: pop %d = (at=%d seq=%d), want (at=%d seq=%d)",
					trial, i, rec.at, rec.seq, want.at, want.seq)
			}
			if r.a.recs[got].slot != slotNone {
				t.Fatalf("popped record retains queue linkage (slot=%d)", r.a.recs[got].slot)
			}
		}
		if r.q.len() != 0 {
			t.Fatalf("queue not drained: %d left", r.q.len())
		}
	}
}

// TestQueueAgainstModel cross-checks the event heap against a sorted
// reference under a randomized push/pop/cancel workload — cancels hit the
// root, leaves and interior slots alike. Cancelled records are recycled
// immediately, so the workload also exercises arena index reuse under live
// traffic.
func TestQueueAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := newQrig()
	seq := uint64(0)
	var live []qitem
	popMin := func() qitem {
		best := -1
		for i, x := range live {
			if best < 0 || x.at < live[best].at || (x.at == live[best].at && x.seq < live[best].seq) {
				best = i
			}
		}
		x := live[best]
		live = append(live[:best], live[best+1:]...)
		return x
	}
	for op := 0; op < 5000; op++ {
		switch r2 := rng.Intn(10); {
		case r2 < 5: // push a small same-timestamp run
			live = append(live, queuePushPattern(rng, r, &seq, 1+rng.Intn(4))...)
		case r2 < 8: // pop min
			if r.q.len() == 0 {
				continue
			}
			want := popMin()
			got := r.q.pop()
			if got != want.idx {
				rec := &r.a.recs[got]
				t.Fatalf("op %d: pop (at=%d seq=%d), want (at=%d seq=%d)",
					op, rec.at, rec.seq, want.at, want.seq)
			}
		default: // cancel arbitrary
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			victim := live[i]
			live = append(live[:i], live[i+1:]...)
			r.q.cancel(victim.idx)
			r.a.freeCancelled(victim.idx)
		}
		if r.q.len() != len(live) {
			t.Fatalf("op %d: queue len %d, model %d", op, r.q.len(), len(live))
		}
	}
	for r.q.len() > 0 {
		want := popMin()
		got := r.q.pop()
		if got != want.idx {
			rec := &r.a.recs[got]
			t.Fatalf("drain: pop (at=%d seq=%d), want (at=%d seq=%d)",
				rec.at, rec.seq, want.at, want.seq)
		}
	}
	if len(live) != 0 {
		t.Fatalf("model not drained: %d left", len(live))
	}
}

// TestQueueInvariants: after every operation, no entry sorts before its
// parent (the 4-ary heap property), every entry's key matches its record,
// and every queued record's slot points back to its own entry — the
// invariants Cancel and Step rest on.
func TestQueueInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := newQrig()
	seq := uint64(0)
	var live []qitem
	check := func(op int) {
		for i := range r.q.h {
			ent := &r.q.h[i]
			if i > 0 && ent.before(&r.q.h[(i-1)>>2]) {
				t.Fatalf("op %d: slot %d (%d,%d) sorts before its parent", op, i, ent.at, ent.seq)
			}
			rec := &r.a.recs[ent.idx]
			if rec.at != ent.at || rec.seq != ent.seq {
				t.Fatalf("op %d: slot %d key (%d,%d) diverges from its record (%d,%d)",
					op, i, ent.at, ent.seq, rec.at, rec.seq)
			}
			if rec.slot != int32(i) {
				t.Fatalf("op %d: record in slot %d has slot %d", op, i, rec.slot)
			}
		}
		if len(r.q.h) != len(live) {
			t.Fatalf("op %d: heap holds %d entries, model %d", op, len(r.q.h), len(live))
		}
		for _, x := range live {
			if s := r.a.recs[x.idx].slot; s < 0 || int(s) >= len(r.q.h) || r.q.h[s].idx != x.idx {
				t.Fatalf("op %d: live record %d has slot %d", op, x.idx, s)
			}
		}
	}
	for op := 0; op < 2000; op++ {
		switch {
		case rng.Intn(3) > 0 || r.q.len() == 0:
			live = append(live, queuePushPattern(rng, r, &seq, 1+rng.Intn(4))...)
		case rng.Intn(2) == 0:
			got := r.q.pop()
			for i, x := range live {
				if x.idx == got {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		default:
			i := rng.Intn(len(live))
			victim := live[i]
			live = append(live[:i], live[i+1:]...)
			r.q.cancel(victim.idx)
			r.a.freeCancelled(victim.idx)
		}
		check(op)
	}
}

// TestArenaRecycles: fired records return to the index-linked free list and
// are reused, so the arena's footprint is the run's high-water mark of
// concurrently pending events — not the total event count.
func TestArenaRecycles(t *testing.T) {
	e := NewEnv()
	ran := 0
	for i := 0; i < 100; i++ {
		e.DoAfter(Time(i), func() { ran++ })
	}
	e.Run()
	if ran != 100 {
		t.Fatalf("ran %d events, want 100", ran)
	}
	if e.arena.nfree == 0 {
		t.Fatal("freelist empty after events fired")
	}
	highWater := len(e.arena.recs)
	// Steady-state: one event in flight at a time reuses one record.
	for i := 0; i < 50; i++ {
		e.DoAfter(1, func() { ran++ })
		e.Run()
	}
	if len(e.arena.recs) != highWater {
		t.Fatalf("arena grew in steady state: %d -> %d", highWater, len(e.arena.recs))
	}
	// Handle-returning timers recycle too; the generation protects the
	// stale handle.
	tm := e.After(1, func() {})
	e.Run()
	if tm.Stopped() {
		t.Fatal("fired timer reports stopped")
	}
	e.Cancel(tm) // no-op: the record already fired
	if tm.Stopped() {
		t.Fatal("cancel-after-fire reports stopped")
	}
	if e.arena.live() != 0 {
		t.Fatalf("%d records leaked", e.arena.live())
	}
}

// TestDoSchedulingAllocFree: in steady state the schedule+fire cycle
// performs no per-event allocations (the closure passed in is the caller's
// concern; here it is preallocated).
func TestDoSchedulingAllocFree(t *testing.T) {
	e := NewEnv()
	fn := func() {}
	// Warm the arena.
	e.DoAfter(0, fn)
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.DoAfter(1, fn)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule+fire allocates %.1f per event, want 0", avg)
	}
}

// TestDoCallAllocFree: the typed-callback path stays allocation-free even
// when the context is freshly boxed per call site — the arena record holds
// the interface words inline.
func TestDoCallAllocFree(t *testing.T) {
	e := NewEnv()
	type target struct{ hits uint64 }
	tgt := &target{}
	cb := func(ctx any, arg uint64) { ctx.(*target).hits += arg }
	e.DoCallAfter(0, cb, tgt, 1)
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.DoCallAfter(1, cb, tgt, 2)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("DoCall schedule+fire allocates %.1f per event, want 0", avg)
	}
	if tgt.hits == 0 {
		t.Fatal("typed callback never ran")
	}
}

// TestProcSleepAllocFree: a process sleep cycle schedules a typed wakeup
// in a recycled arena record and hands off through the process's channels
// — zero allocations per wakeup.
func TestProcSleepAllocFree(t *testing.T) {
	e := NewEnv()
	stop := false
	e.Spawn("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(Microsecond)
		}
	})
	e.RunFor(10 * Microsecond) // warm up
	avg := testing.AllocsPerRun(500, func() {
		e.RunFor(Microsecond)
	})
	stop = true
	e.RunFor(Microsecond)
	if avg > 0 {
		t.Fatalf("proc sleep cycle allocates %.2f per wakeup, want 0", avg)
	}
}

// TestNextEventTime covers the World engine's window-sizing peek.
func TestNextEventTime(t *testing.T) {
	e := NewEnv()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty env reports a next event")
	}
	e.At(5, func() {})
	e.At(3, func() {})
	if at, ok := e.NextEventTime(); !ok || at != 3 {
		t.Fatalf("NextEventTime = %v,%v, want 3,true", at, ok)
	}
	e.Run()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("drained env reports a next event")
	}
}

// TestDoPastPanics: the hot path enforces the same no-past-scheduling
// contract as At.
func TestDoPastPanics(t *testing.T) {
	e := NewEnv()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Do in the past accepted")
		}
	}()
	e.Do(5, func() {})
}

// TestDoAfterNegativePanics mirrors After's contract on the pooled path.
func TestDoAfterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative DoAfter accepted")
		}
	}()
	NewEnv().DoAfter(-1, func() {})
}

// BenchmarkEnvEventChurn measures the engine's core push/pop cycle with a
// standing population of pending timers — the DES hot loop.
func BenchmarkEnvEventChurn(b *testing.B) {
	e := NewEnv()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.DoAfter(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DoAfter(1024, fn)
		e.Step()
	}
}

// BenchmarkEnvDoCallChurn is the typed-callback twin of EnvEventChurn —
// the path cluster hot loops use after the closure-interning work.
func BenchmarkEnvDoCallChurn(b *testing.B) {
	e := NewEnv()
	type target struct{ hits uint64 }
	tgt := &target{}
	cb := func(ctx any, arg uint64) { ctx.(*target).hits++ }
	for i := 0; i < 1024; i++ {
		e.DoCallAfter(Time(i), cb, tgt, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DoCallAfter(1024, cb, tgt, 0)
		e.Step()
	}
}

// TestArenaInvariantsQuick drives the timer arena with random
// alloc/free/freeCancelled sequences and checks the structural invariants:
// live records never sit on the free list, the free list's length matches
// the nfree counter, every free-list index is in range and distinct, and
// live() conserves (allocated - freed).
func TestArenaInvariantsQuick(t *testing.T) {
	check := func(ops []byte) bool {
		var a arena
		a.freeHead = -1
		live := make(map[int32]bool)
		for _, op := range ops {
			switch {
			case op%3 == 0 || len(live) == 0: // alloc
				i := a.alloc()
				if live[i] {
					t.Logf("alloc returned live record %d", i)
					return false
				}
				if a.recs[i].gen&1 != 0 {
					t.Logf("alloc returned odd generation %d", a.recs[i].gen)
					return false
				}
				live[i] = true
			default: // free one live record, fired or cancelled
				var victim int32 = -1
				for i := range live {
					if victim < 0 || i < victim {
						victim = i
					}
				}
				if op%3 == 1 {
					a.free(victim)
				} else {
					a.freeCancelled(victim)
				}
				delete(live, victim)
			}
		}
		// Walk the free list: every entry distinct, in range, not live.
		seen := make(map[int32]bool)
		n := 0
		for i := a.freeHead; i >= 0; i = a.recs[i].link {
			if int(i) >= len(a.recs) || seen[i] || live[i] {
				t.Logf("free list corrupt at %d (seen=%v live=%v)", i, seen[i], live[i])
				return false
			}
			seen[i] = true
			n++
		}
		if n != a.nfree {
			t.Logf("free list length %d != nfree %d", n, a.nfree)
			return false
		}
		if a.live() != len(live) {
			t.Logf("live() = %d, model says %d", a.live(), len(live))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
