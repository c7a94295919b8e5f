package sim

// The timer arena is the struct-of-arrays backing store for every scheduled
// event. Instead of one heap-allocated Timer object per scheduling call,
// records live in a single flat []timerRec slice owned by the Env and are
// addressed by int32 index; the free list is index-linked through the
// records themselves (timerRec.link), so steady-state scheduling touches no
// allocator at all — At, After, Do, DoAfter, DoCall and DoCallAfter are all
// allocation-free once the arena has grown to the run's high-water mark.
//
// Records recycle the moment they fire (or are cancelled), protected by a
// generation counter: a Timer handle captures (index, generation) at
// creation, and every recycle bumps the record's generation, so operations
// through a stale handle — Cancel after firing, Stopped on a long-dead
// timer — degrade to safe no-ops instead of corrupting an unrelated reused
// record.
//
// Generation parity encodes *how* the record last died, so Stopped keeps
// working after the record is recycled: live records always carry an even
// generation; firing advances the generation by 2 (stays even), while
// cancellation advances it by 1 (odd). A handle holding generation g can
// therefore distinguish "cancelled" (record generation == g+1) from "fired
// or reused" (anything else) without the record keeping any per-handle
// state. Reusing a cancelled record normalizes the generation back to even
// in alloc, which also guarantees the new handle's generation exceeds every
// stale one.

// EventFn is the typed zero-allocation event callback: a top-level function
// or method value applied to a context pointer and one immediate argument.
// Scheduling an EventFn with DoCall/DoCallAfter stores both words inline in
// the timer record, so hot paths that would otherwise allocate a capturing
// closure per event schedule with zero allocations.
type EventFn func(ctx any, arg uint64)

// timerRec is one arena slot. at/seq order execution; exactly one of fn or
// cb is set; slot locates a queued record (≥ 0: its index in the event
// heap, slotImm: immediate FIFO, slotNone: not queued).
type timerRec struct {
	at   Time
	seq  uint64
	fn   func()
	cb   EventFn
	ctx  any
	arg  uint64
	gen  uint32
	slot int32
	link int32 // next free record while on the free list
}

const (
	slotNone int32 = -1 // not queued (free or mid-fire)
	slotImm  int32 = -2 // parked in the immediate FIFO
)

// arena is the flat record store plus its index-linked free list.
type arena struct {
	recs     []timerRec
	freeHead int32 // -1 when empty
	nfree    int
}

// alloc returns a live record index with fn/cb/ctx cleared, slot = slotNone,
// and an even generation strictly greater than any stale handle's.
func (a *arena) alloc() int32 {
	if a.freeHead >= 0 {
		i := a.freeHead
		r := &a.recs[i]
		a.freeHead = r.link
		a.nfree--
		r.link = -1
		if r.gen&1 == 1 {
			r.gen++ // last death was a cancel: normalize to even
		}
		return i
	}
	a.recs = append(a.recs, timerRec{slot: slotNone, link: -1})
	return int32(len(a.recs) - 1)
}

// free recycles a record that fired: generation += 2 keeps it even, so
// stale handles read "fired" (not Stopped), and clears the callback words
// for the GC.
func (a *arena) free(i int32) {
	r := &a.recs[i]
	r.gen += 2
	a.push(i)
}

// freeCancelled recycles a record that was cancelled while queued in the
// event heap: generation += 1 flips it odd so surviving handles report
// Stopped.
func (a *arena) freeCancelled(i int32) {
	r := &a.recs[i]
	r.gen++
	a.push(i)
}

// cancelMark flips a record odd without freeing it — used for records
// parked in the immediate FIFO, which are unlinked lazily (freeMarked) when
// they reach the FIFO front.
func (a *arena) cancelMark(i int32) { a.recs[i].gen++ }

// freeMarked completes the lazy free of a cancelMark'd record.
func (a *arena) freeMarked(i int32) { a.push(i) }

func (a *arena) push(i int32) {
	r := &a.recs[i]
	r.fn = nil
	r.cb = nil
	r.ctx = nil
	r.slot = slotNone
	r.link = a.freeHead
	a.freeHead = i
	a.nfree++
}

// live reports how many records are allocated and not on the free list.
func (a *arena) live() int { return len(a.recs) - a.nfree }
