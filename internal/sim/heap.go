package sim

// The event queue is a plain 4-ary min-heap of (at, seq, idx) entries: due
// time, the Env's global scheduling sequence, and the record's arena index.
// (at, seq) is a strict total order — seq is unique and strictly increasing
// — so the pop order is exactly the order every simulation outcome rests
// on. The key is inlined next to the index, so sift comparisons read
// contiguous array memory instead of chasing records.
//
// An earlier version stored same-timestamp runs as FIFO buckets and heaped
// the buckets, on the grounds that a GPU placement wave posted one
// notification batch per SM, all due at now+NotifDelay. Now that a wave
// posts one batch in all, only 4.9% of heap pushes on the dnn-zipf
// benchmark workload share the previous push's timestamp (21.0% before)
// and 0.09% on llm-pd, so the bucket bookkeeping cost more than it saved.
//
// Each queued record's timerRec.slot holds its heap index (kept current by
// every move), so Cancel removes it eagerly in O(log n). Entries hold arena
// indices, not pointers: the heap is pointer-free, the GC never traces it,
// and no operation allocates once the slice reaches the run's high-water
// mark.

// qEntry is one heap slot.
type qEntry struct {
	at  Time
	seq uint64
	idx int32
}

func (a *qEntry) before(b *qEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is the 4-ary min-heap described above.
type eventQueue struct {
	a *arena
	h []qEntry
}

// len reports the number of queued records.
func (q *eventQueue) len() int { return len(q.h) }

// minKey returns the (at, seq) of the earliest queued record. Only valid
// when len() > 0.
func (q *eventQueue) minKey() (Time, uint64) { return q.h[0].at, q.h[0].seq }

// peek returns the earliest queued record's arena index without removing
// it. Only valid when len() > 0.
func (q *eventQueue) peek() int32 { return q.h[0].idx }

// push inserts record i with key (at, seq).
func (q *eventQueue) push(i int32, at Time, seq uint64) {
	q.h = append(q.h, qEntry{at: at, seq: seq, idx: i})
	q.siftUp(len(q.h) - 1)
}

// pop removes and returns the earliest queued record's arena index. The
// record's queue linkage is cleared; the caller owns the record.
func (q *eventQueue) pop() int32 {
	i := q.h[0].idx
	q.a.recs[i].slot = slotNone
	q.removeAt(0)
	return i
}

// cancel unlinks a queued record. The caller handles the record's
// generation and free-list bookkeeping.
func (q *eventQueue) cancel(i int32) {
	r := &q.a.recs[i]
	pos := int(r.slot)
	r.slot = slotNone
	q.removeAt(pos)
}

// removeAt deletes heap slot i, moving the last entry into the hole.
func (q *eventQueue) removeAt(i int) {
	n := len(q.h) - 1
	last := q.h[n]
	q.h = q.h[:n]
	if i == n {
		return
	}
	q.h[i] = last
	if !q.siftDown(i) {
		q.siftUp(i)
	}
}

// siftUp moves the entry at slot i up to its place and records its final
// slot (and that of every entry it displaced).
func (q *eventQueue) siftUp(i int) {
	e := q.h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&q.h[p]) {
			break
		}
		q.h[i] = q.h[p]
		q.a.recs[q.h[i].idx].slot = int32(i)
		i = p
	}
	q.h[i] = e
	q.a.recs[e.idx].slot = int32(i)
}

// siftDown moves the entry at slot i down to its place, records the final
// slots, and reports whether it moved (removeAt sifts up otherwise).
func (q *eventQueue) siftDown(i int) bool {
	n := len(q.h)
	e := q.h[i]
	start := i
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if q.h[c].before(&q.h[best]) {
				best = c
			}
		}
		if !q.h[best].before(&e) {
			break
		}
		q.h[i] = q.h[best]
		q.a.recs[q.h[i].idx].slot = int32(i)
		i = best
	}
	q.h[i] = e
	q.a.recs[e.idx].slot = int32(i)
	return i != start
}
