package main

import (
	"sort"

	"paella/internal/metrics"
	"paella/internal/sim"
	"paella/internal/telemetry"
)

// endToEndMetrics names, in order, the metrics a run without tracing
// reports; BENCHMARK.json declares the same list.
var endToEndMetrics = []struct{ name, unit string }{
	{"sim_req_per_s", "req/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"jct_p50_ms", "ms"},
	{"ttft_p50_ms", "ms"},
	{"slo_attain", "fraction"},
	{"fleet_usd_per_day", "USD"},
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

func reqPerSec(r rep) float64 { return float64(r.counts.Submitted) / r.wall.Seconds() }

func ms(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }
func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// simStats are the simulated answers of one repetition; every repetition
// of a seed yields the same ones (the digest gate proves it).
type simStats struct {
	ok                   *metrics.Collector // succeeded records
	jctP50, jctP99       sim.Time
	ttfts                []sim.Time
	ttftP50, ttftP99     sim.Time
	tpotP99              sim.Time
	sloAttain, failFrac  float64
	usdPerDay            float64
	submitted, completed int
}

func simulated(def *workloadDef, r rep) simStats {
	ok := r.col.Succeeded()
	s := simStats{ok: ok, submitted: r.counts.Submitted, completed: r.counts.Completed}
	jcts := ok.JCTs()
	s.jctP50 = metrics.Percentile(jcts, 50)
	s.jctP99 = metrics.Percentile(jcts, 99)
	// A one-shot DNN request's first output is its whole result, so its
	// time to first output is its JCT.
	s.ttfts = jcts
	if len(r.layers.engines) > 0 {
		s.ttfts = ok.TTFTs()
		s.tpotP99 = metrics.Percentile(ok.TPOTs(), 99)
	}
	s.ttftP50 = metrics.Percentile(s.ttfts, 50)
	s.ttftP99 = metrics.Percentile(s.ttfts, 99)
	good := 0
	for _, t := range s.ttfts {
		if t <= def.slo {
			good++
		}
	}
	if s.submitted > 0 {
		s.sloAttain = float64(good) / float64(s.submitted)
		s.failFrac = float64(r.counts.Shed+r.counts.Failed) / float64(s.submitted)
	}
	s.usdPerDay = r.usdPerDay
	return s
}

// endToEnd computes the untraced run's metrics: host metrics as medians
// over repetitions (setup is the median set-up time), simulated ones from
// the (identical) repetitions.
func endToEnd(def *workloadDef, reps []rep, setup float64) (map[string]metricValue, []namedMetric) {
	s := simulated(def, reps[0])
	vals := map[string]float64{
		"sim_req_per_s":     medianOf(reps, reqPerSec),
		"setup_s":           setup,
		"peak_rss_mb":       peakRSSMiB(),
		"jct_p50_ms":        ms(s.jctP50),
		"ttft_p50_ms":       ms(s.ttftP50),
		"slo_attain":        s.sloAttain,
		"fleet_usd_per_day": s.usdPerDay,
	}
	out := make(map[string]metricValue, len(endToEndMetrics))
	for _, m := range endToEndMetrics {
		out[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	n := s.ok.Len()
	extra := []namedMetric{
		{Name: "jct_p50_ms", Unit: "ms", Value: ms(s.jctP50), N: n},
		{Name: "jct_p99_ms", Unit: "ms", Value: ms(s.jctP99), N: n},
		{Name: "ttft_p50_ms", Unit: "ms", Value: ms(s.ttftP50), N: len(s.ttfts)},
		{Name: "ttft_p99_ms", Unit: "ms", Value: ms(s.ttftP99), N: len(s.ttfts)},
		{Name: "tpot_p99_us", Unit: "us", Value: us(s.tpotP99), N: len(s.ttfts)},
		{Name: "fail_frac", Unit: "fraction", Value: s.failFrac},
		{Name: "slo_ms", Unit: "ms", Value: ms(def.slo)},
		{Name: "submitted", Unit: "count", Value: float64(s.submitted)},
		{Name: "completed", Unit: "count", Value: float64(s.completed)},
		{Name: "reps", Unit: "count", Value: float64(len(reps))},
	}
	lo, hi := reqPerSec(reps[0]), reqPerSec(reps[0])
	for _, r := range reps[1:] {
		lo, hi = min(lo, reqPerSec(r)), max(hi, reqPerSec(r))
	}
	extra = append(extra,
		namedMetric{Name: "sim_req_per_s.min", Unit: "req/s", Value: lo},
		namedMetric{Name: "sim_req_per_s.max", Unit: "req/s", Value: hi})
	return out, extra
}

// tracedLayers is what the traced run measured.
type tracedLayers struct {
	untraced, traced    []rep
	shares              *moduleShares
	sched, picks, ticks callTimer
	spans               int
}

// hostShareBuckets are the attribution buckets reported as
// <bucket>.host_share ("gpu" is then widened to include "gpu.place").
var hostShareBuckets = []string{
	"sim.queue", "sim.proc", "sim.world", "sim.env",
	"gpu.place", "gpu", "channel", "core", "sched", "llm", "vram", "cudart",
	"cluster", "gateway", "autoscale", "telemetry", "metrics",
	"bench", "runtime.gc", "runtime.sched",
}

// perLayer computes the traced run's per-layer metrics. Counter ratios come
// from the program's public counters (identical in every repetition);
// host-time ratios from the untraced repetitions, the decorators and the
// CPU profile.
func perLayer(def *workloadDef, tl tracedLayers) (map[string]metricValue, []namedMetric) {
	r := tl.untraced[0]
	s := simulated(def, r)
	lo := r.layers
	req := float64(r.counts.Submitted)
	perReq := func(x float64) float64 { return x / req }
	perKReq := func(x float64) float64 { return 1000 * x / req }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := map[string]metricValue{}
	put := func(name, unit string, x float64) { v[name] = metricValue{Value: x, Unit: unit} }

	untracedWall := medianOf(tl.untraced, func(r rep) float64 { return r.wall.Seconds() })
	tracedWall := medianOf(tl.traced, func(r rep) float64 { return r.wall.Seconds() })
	steps := float64(r.steps)

	// Bases.
	put("bench.requests", "count", req)
	put("bench.profile_samples", "count", float64(tl.shares.total))
	put("bench.spans", "count", float64(tl.spans))
	put("bench.trace_overhead_frac", "fraction", div(tracedWall, untracedWall)-1)
	put("sim.events", "count", steps)
	put("sim.elapsed_ms", "ms", ms(r.elapsed))

	// sim
	put("sim.events_per_req", "1/req", perReq(steps))
	put("sim.host_ns_per_event", "ns", div(untracedWall*1e9, steps))
	put("sim.allocs_per_event", "1/event", medianOf(tl.untraced, func(r rep) float64 { return div(float64(r.mallocs), float64(r.steps)) }))
	put("sim.alloc_bytes_per_req", "B/req", medianOf(tl.untraced, func(r rep) float64 { return float64(r.allocBytes) / float64(r.counts.Submitted) }))
	put("sim.host_share", "fraction", tl.shares.shareOf("sim.queue", "sim.proc", "sim.world", "sim.env"))
	named := int64(0)
	for _, b := range hostShareBuckets {
		put(b+".host_share", "fraction", tl.shares.share(b))
		named += tl.shares.samples[b]
	}
	// other is every sample outside the named buckets: unattributed
	// runtime work and modules without a bucket of their own.
	put("other.host_share", "fraction", div(float64(tl.shares.total-named), float64(tl.shares.total)))
	// gpu.host_share is the whole gpu module, block placement included.
	put("gpu.host_share", "fraction", tl.shares.shareOf("gpu", "gpu.place"))

	// gpu
	var kernels, blocks, hol float64
	var util float64
	for _, d := range lo.devices {
		st := d.Stats()
		kernels += float64(st.KernelsCompleted)
		blocks += float64(st.BlocksPlaced)
		hol += float64(st.HoLBlockedKernels)
		util += d.Utilization()
	}
	mean := telemetry.MeanAnatomy(s.ok)
	p99 := telemetry.AnatomyPercentile(s.ok, 99)
	put("gpu.kernels_per_req", "1/req", perReq(kernels))
	put("gpu.blocks_per_req", "1/req", perReq(blocks))
	put("gpu.util", "fraction", div(util, float64(len(lo.devices))))
	put("gpu.hol_kernels_per_kreq", "1/kreq", perKReq(hol))
	put("gpu.hol_gap_us", "us", us(mean[telemetry.PhaseHoLGap]))

	// core
	var notifs, wakeups float64
	var busyNs sim.Time
	for _, d := range lo.disps {
		st := d.Stats()
		notifs += float64(st.NotifsHandled)
		wakeups += float64(st.LoopWakeups)
		busyNs += st.BusyNs
	}
	put("core.notifs_per_req", "1/req", perReq(notifs))
	put("core.wakeups_per_req", "1/req", perReq(wakeups))
	put("core.busy_frac", "fraction", div(float64(busyNs), float64(len(lo.disps))*float64(r.elapsed)))
	put("core.sched_wait_us", "us", us(mean[telemetry.PhaseSchedWait]))
	put("core.sched_wait_p99_us", "us", us(p99[telemetry.PhaseSchedWait]))

	// sched
	put("sched.calls_per_req", "1/req", perReq(float64(tl.sched.calls)/float64(len(tl.traced))))
	put("sched.host_ns_per_call", "ns", div(float64(tl.sched.ns), float64(tl.sched.calls)))

	// llm
	var iters, preempt float64
	for _, e := range lo.engines {
		iters += float64(e.Iterations())
		preempt += float64(e.Preemptions())
	}
	var outTokens float64
	for _, rec := range s.ok.Records() {
		outTokens += float64(rec.OutputTokens)
	}
	put("llm.iterations", "count", iters)
	put("llm.iterations_per_req", "1/req", perReq(iters))
	put("llm.tokens_per_iteration", "tokens", div(outTokens, iters))
	put("llm.preemptions_per_kreq", "1/kreq", perKReq(preempt))
	put("llm.prefill_us", "us", us(mean[telemetry.PhasePrefill]))
	put("llm.decode_us", "us", us(mean[telemetry.PhaseDecode]))
	put("llm.batch_hold_us", "us", us(mean[telemetry.PhaseBatchHold]))

	// vram
	var pins, warm, loads, evictions float64
	kvPeak := 0
	for _, m := range lo.mems {
		st := m.Stats()
		pins += float64(st.Pins)
		warm += float64(st.WarmHits)
		loads += float64(st.Loads)
		evictions += float64(st.Evictions)
		if st.KVPeakBlocks > kvPeak {
			kvPeak = st.KVPeakBlocks
		}
	}
	put("vram.pins", "count", pins)
	put("vram.warm_hit_ratio", "fraction", div(warm, pins))
	put("vram.loads_per_kreq", "1/kreq", perKReq(loads))
	put("vram.evictions_per_kreq", "1/kreq", perKReq(evictions))
	put("vram.cold_start_us", "us", us(mean[telemetry.PhaseColdStart]))
	put("vram.kv_peak_pages", "pages", float64(kvPeak))

	// cudart
	var pcieBytes float64
	var queued sim.Time
	for _, l := range lo.links {
		st := l.Stats()
		pcieBytes += float64(st.Bytes)
		queued += st.QueuedNs
	}
	put("cudart.pcie_mb_per_req", "MiB/req", perReq(pcieBytes/(1<<20)))
	put("cudart.pcie_queued_us_per_req", "us/req", perReq(us(queued)))

	// cluster
	var kvBytes float64
	if lo.pd != nil {
		_, b := lo.pd.Transfers()
		kvBytes = float64(b)
	}
	put("cluster.kv_mb_per_req", "MiB/req", perReq(kvBytes/(1<<20)))
	put("cluster.kv_handoff_us", "us", us(mean[telemetry.PhaseKVHandoff]))
	put("cluster.kv_handoff_p99_us", "us", us(p99[telemetry.PhaseKVHandoff]))

	// gateway
	picksPerRep := float64(tl.picks.calls) / float64(len(tl.traced))
	put("gateway.picks_per_req", "1/req", perReq(picksPerRep))
	put("gateway.host_ns_per_pick", "ns", div(float64(tl.picks.ns), float64(tl.picks.calls)))

	// autoscale
	put("autoscale.ticks", "count", float64(tl.ticks.calls)/float64(len(tl.traced)))
	put("autoscale.host_ns_per_tick", "ns", div(float64(tl.ticks.ns), float64(tl.ticks.calls)))
	coldStarts, meanActive := 0.0, 0.0
	if sc := lo.scaler; sc != nil {
		coldStarts = float64(sc.ScaleStats().ColdStarts)
		meanActive = sc.MeanActive(sc.QuiesceTime(fleetDuration))
	}
	put("autoscale.cold_starts", "count", coldStarts)
	put("autoscale.mean_active", "replicas", meanActive)

	extra := []namedMetric{
		{Name: "untraced_wall_s", Unit: "s", Value: untracedWall, N: len(tl.untraced)},
		{Name: "traced_wall_s", Unit: "s", Value: tracedWall, N: len(tl.traced)},
	}
	for b, n := range tl.shares.samples {
		extra = append(extra, namedMetric{Name: "samples." + b, Unit: "count", Value: float64(n)})
	}
	sort.Slice(extra[2:], func(i, j int) bool { return extra[2+i].Name < extra[2+j].Name })
	return v, extra
}
