package main

import (
	"encoding/json"
	"io"
	"time"

	"paella/internal/autoscale"
	"paella/internal/gateway"
	"paella/internal/sched"
)

// spanKind names what a span covers. Every span is recorded by the
// benchmark's own code around a call into the program.
type spanKind uint8

const (
	spanSlice  spanKind = iota // one World.RunUntil slice
	spanSubmit                 // one benchmark-side request submission
	spanPick                   // one decorated gateway.Policy.Pick
	spanTick                   // one decorated autoscale.Policy.Target
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"run-slice", "submit", "gateway.pick", "autoscale.tick"}

// maxSpans bounds the in-memory span log; later spans are counted, not kept.
const maxSpans = 1 << 20

// span is one host-time interval. Start is nanoseconds since the tracer
// was created; Parent is the enclosing span's index, or -1.
type span struct {
	Kind   spanKind
	Parent int32
	Arg    uint64
	Start  int64
	Dur    int64
}

// callTimer accumulates host time spent inside one decorated interface.
type callTimer struct {
	calls uint64
	ns    int64
}

func (c *callTimer) since(t0 time.Time) {
	c.calls++
	c.ns += int64(time.Since(t0))
}

func (c *callTimer) add(o callTimer) {
	c.calls += o.calls
	c.ns += o.ns
}

// tracer is the traced run's instrumentation: timing decorators around the
// policy interfaces the program accepts, and a span log. A nil *tracer is
// the untraced run: every method is a no-op that returns its input.
//
// Spans are recorded only on the World's control timeline (submissions,
// gateway picks, autoscale ticks, run slices), which runs on the caller's
// goroutine. Scheduling policies run on shards, possibly in parallel, so
// each decorated instance keeps its own timer and they are summed after
// the run.
type tracer struct {
	origin  time.Time
	spans   []span
	dropped int
	open    []int32 // stack of open span indices

	scheds []*callTimer
	picks  callTimer
	ticks  callTimer
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its handle (-1 when untraced or full).
func (t *tracer) begin(kind spanKind, arg uint64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Kind: kind, Parent: parent, Arg: arg, Start: int64(time.Since(t.origin))})
	} else {
		t.dropped++
	}
	t.open = append(t.open, idx)
	return idx
}

// end closes the innermost open span.
func (t *tracer) end(idx int32) {
	if t == nil {
		return
	}
	t.open = t.open[:len(t.open)-1]
	if idx >= 0 {
		s := &t.spans[idx]
		s.Dur = int64(time.Since(t.origin)) - s.Start
	}
}

// schedPolicy wraps a dispatcher's scheduling policy with a call timer.
func (t *tracer) schedPolicy(p sched.Policy) sched.Policy {
	if t == nil {
		return p
	}
	ct := &callTimer{}
	t.scheds = append(t.scheds, ct)
	return &timedSched{inner: p, t: ct}
}

// gatewayPolicy wraps a routing policy with a call timer and pick spans.
func (t *tracer) gatewayPolicy(p gateway.Policy) gateway.Policy {
	if t == nil {
		return p
	}
	return &timedGateway{inner: p, t: t}
}

// autoscalePolicy wraps a scaling policy with a call timer and tick spans.
func (t *tracer) autoscalePolicy(p autoscale.Policy) autoscale.Policy {
	if t == nil {
		return p
	}
	return &timedAutoscale{inner: p, t: t}
}

// schedTotals sums every decorated scheduling policy's timer.
func (t *tracer) schedTotals() callTimer {
	var sum callTimer
	for _, c := range t.scheds {
		sum.add(*c)
	}
	return sum
}

// timedSched forwards every sched.Policy method and times it. PickFit's
// time includes the dispatcher's fits callback, which runs inside it.
type timedSched struct {
	inner sched.Policy
	t     *callTimer
}

func (p *timedSched) Name() string { return p.inner.Name() }

func (p *timedSched) Add(j *sched.JobEntry) {
	t0 := time.Now()
	p.inner.Add(j)
	p.t.since(t0)
}

func (p *timedSched) Remove(j *sched.JobEntry) {
	t0 := time.Now()
	p.inner.Remove(j)
	p.t.since(t0)
}

func (p *timedSched) Pick() *sched.JobEntry {
	t0 := time.Now()
	j := p.inner.Pick()
	p.t.since(t0)
	return j
}

func (p *timedSched) PickFit(fits func(*sched.JobEntry) bool, maxScan int) *sched.JobEntry {
	t0 := time.Now()
	j := p.inner.PickFit(fits, maxScan)
	p.t.since(t0)
	return j
}

func (p *timedSched) Dispatched(j *sched.JobEntry) {
	t0 := time.Now()
	p.inner.Dispatched(j)
	p.t.since(t0)
}

func (p *timedSched) JobAdmitted(client int) {
	t0 := time.Now()
	p.inner.JobAdmitted(client)
	p.t.since(t0)
}

func (p *timedSched) JobFinished(client int) {
	t0 := time.Now()
	p.inner.JobFinished(client)
	p.t.since(t0)
}

func (p *timedSched) Len() int {
	t0 := time.Now()
	n := p.inner.Len()
	p.t.since(t0)
	return n
}

// timedGateway forwards gateway.Policy and records one span per pick.
type timedGateway struct {
	inner gateway.Policy
	t     *tracer
}

func (p *timedGateway) Name() string { return p.inner.Name() }

func (p *timedGateway) Pick(req gateway.Request, replicas []gateway.Replica) int {
	sp := p.t.begin(spanPick, uint64(len(replicas)))
	t0 := time.Now()
	i := p.inner.Pick(req, replicas)
	p.t.picks.since(t0)
	p.t.end(sp)
	return i
}

// timedAutoscale forwards autoscale.Policy and records one span per tick.
type timedAutoscale struct {
	inner autoscale.Policy
	t     *tracer
}

func (p *timedAutoscale) Name() string { return p.inner.Name() }

func (p *timedAutoscale) Target(sig autoscale.Signals) int {
	sp := p.t.begin(spanTick, uint64(sig.Active))
	t0 := time.Now()
	n := p.inner.Target(sig)
	p.t.ticks.since(t0)
	p.t.end(sp)
	return n
}

// spanFile is the span export: the provenance stamp, then one record per
// span in start order.
type spanFile struct {
	Provenance provenance `json:"provenance"`
	Kinds      []string   `json:"kinds"`
	Dropped    int        `json:"dropped"`
	Spans      []spanJSON `json:"spans"`
}

type spanJSON struct {
	ID      int    `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	Arg     uint64 `json:"arg"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// writeSpans exports the span log.
func (t *tracer) writeSpans(w io.Writer, prov provenance) error {
	out := spanFile{Provenance: prov, Kinds: spanNames[:], Dropped: t.dropped, Spans: make([]spanJSON, len(t.spans))}
	for i, s := range t.spans {
		out.Spans[i] = spanJSON{ID: i, Parent: s.Parent, Name: spanNames[s.Kind], Arg: s.Arg, StartNs: s.Start, DurNs: s.Dur}
	}
	return json.NewEncoder(w).Encode(out)
}
