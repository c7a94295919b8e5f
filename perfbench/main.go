// Command perfbench is the repository's benchmark: it measures how many
// simulated requests the simulator completes per host second, with the
// simulated answers checked and unchanged, on three workloads that load
// different layers of the stack (see README.md).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload dnn-zipf --seed 1 --seconds 40 --trace 0
//
// Each run generates the workload's arrival schedule from -seed, then
// repeats one simulation of it until -seconds have passed. With -trace 0 it
// reports the end-to-end metrics; with -trace 1 it runs untraced and then
// traced repetitions and reports the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"paella/internal/autoscale"
	"paella/internal/metrics"
	"paella/internal/sim"
	"paella/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	root     string
}

// runSlices is how many World.RunUntil calls one simulation is cut into;
// each is one span in the traced run. Untraced runs cut it identically.
const runSlices = 64

// profileHz is the traced run's CPU sampling rate.
const profileHz = 500

// setupReps is how many extra set-ups (without a run) an untraced run
// times, within a tenth of its budget, so that setup_s is a median over
// enough samples.
const setupReps = 25

// minReps is the fewest repetitions a run makes, whatever -seconds says.
const minReps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	list := fs.Bool("list", false, "list the workloads and exit")
	fs.StringVar(&o.workload, "workload", "", "workload name (see -list)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every input generator")
	fs.Float64Var(&o.seconds, "seconds", 40, "host seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "directory for the result and span files")
	fs.StringVar(&o.root, "root", ".", "repository root, hashed into the provenance stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintf(stdout, "%-12s %s\n", w.name, w.why)
		}
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	def, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	res, err := measure(def, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := res.write(o, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// rep is one repetition: set up, run, check.
type rep struct {
	setup   time.Duration
	wall    time.Duration
	digest  string
	counts  autoscale.Counts
	col     *metrics.Collector
	layers  layerObjects
	steps   uint64
	elapsed sim.Time
	engine  string
	// usdPerDay is the fleet's billing extrapolated to a day.
	usdPerDay float64
	// mallocs and allocBytes are the heap allocations of the measured
	// loop (filled only when requested).
	mallocs, allocBytes uint64
	gateErr             error
}

// generator produces a repetition's inputs; set-up time includes it.
type generator func() (inputs, error)

// runRep sets up and runs one simulation of the workload. A non-nil tr
// decorates the program's policies and records spans; a non-nil prof
// receives a CPU profile of the measured loop only.
func runRep(def *workloadDef, gen generator, tr *tracer, prof *bytes.Buffer, memstats bool) (r rep, err error) {
	runtime.GC()
	t0 := time.Now()
	in, err := gen()
	if err != nil {
		return r, fmt.Errorf("generate %s: %w", def.name, err)
	}
	inst, err := def.build(in, tr)
	if err != nil {
		return r, fmt.Errorf("build %s: %w", def.name, err)
	}
	defer inst.world.Close()
	r.setup = time.Since(t0)
	r.engine = "world-serial"
	if inst.world.Parallel() {
		r.engine = "world-parallel"
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&m0)
	}
	if prof != nil {
		// Sample faster than pprof's default 100 Hz. The runtime keeps this
		// rate and warns on stderr when StartCPUProfile asks for its own.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(prof); err != nil {
			return r, fmt.Errorf("cpu profile: %w", err)
		}
	}
	t1 := time.Now()
	for k := 1; k <= runSlices; k++ {
		sp := tr.begin(spanSlice, uint64(k))
		inst.world.RunUntil(inst.limit * sim.Time(k) / runSlices)
		tr.end(sp)
	}
	r.wall = time.Since(t1)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	if memstats {
		runtime.ReadMemStats(&m1)
		r.mallocs = m1.Mallocs - m0.Mallocs
		r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	}

	r.counts = inst.counts
	if inst.ledger != nil {
		r.counts = inst.ledger()
	}
	r.col = inst.collector()
	var buf bytes.Buffer
	if err := r.col.WriteJSON(&buf); err != nil {
		return r, fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	r.digest = hex.EncodeToString(sum[:])
	r.layers = inst.layers()
	r.steps = inst.world.Ctrl().Steps()
	for i := 0; i < inst.world.NumShards(); i++ {
		r.steps += inst.world.Shard(i).Steps()
	}
	r.elapsed = inst.world.Ctrl().Now()
	r.usdPerDay = inst.usdPerDay()
	r.gateErr = gate(r, len(in.reqs)+len(in.llmReqs))
	stopDispatchers(r.layers)
	return r, nil
}

// setupOnce times one set-up of the workload (generation and
// construction) and tears it down without running it.
func setupOnce(def *workloadDef, gen generator) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	in, err := gen()
	if err != nil {
		return 0, fmt.Errorf("generate %s: %w", def.name, err)
	}
	inst, err := def.build(in, nil)
	if err != nil {
		return 0, fmt.Errorf("build %s: %w", def.name, err)
	}
	d := time.Since(t0)
	stopDispatchers(inst.layers())
	inst.world.Close()
	return d, nil
}

// stopDispatchers ends each dispatcher's coroutine so a finished
// simulation holds no parked goroutines (and no memory) into the next.
func stopDispatchers(lo layerObjects) {
	for _, d := range lo.disps {
		d.Stop()
		d.Env().RunUntil(d.Env().Now())
	}
}

// gate is the correctness check every repetition must pass: request
// conservation, one terminal record per request, the latency anatomy
// summing to JCT on every record, and the gpu and vram invariants on every
// replica.
func gate(r rep, generated int) (err error) {
	c := r.counts
	switch {
	case c.Submitted != generated:
		return fmt.Errorf("gate: %d requests generated, %d submitted", generated, c.Submitted)
	case !c.Conserved():
		return fmt.Errorf("gate: submitted %d != completed %d + shed %d + failed %d",
			c.Submitted, c.Completed, c.Shed, c.Failed)
	case r.col.Len() != c.Submitted:
		return fmt.Errorf("gate: %d terminal records for %d requests", r.col.Len(), c.Submitted)
	}
	recs := r.col.Records()
	for i := range recs {
		a := telemetry.Of(&recs[i])
		if a.Sum() != recs[i].JCT() {
			return fmt.Errorf("gate: request %d anatomy sums to %v, JCT %v", recs[i].ID, a.Sum(), recs[i].JCT())
		}
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("gate: invariant violated: %v", p)
		}
	}()
	for _, d := range r.layers.devices {
		d.CheckInvariants()
	}
	for _, m := range r.layers.mems {
		m.CheckInvariants()
	}
	return nil
}

// result is everything one benchmark run reports.
type result struct {
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Extra      []namedMetric          `json:"-"`
	Provenance provenance             `json:"-"`
	Digest     string                 `json:"-"`
	Reps       int                    `json:"-"`
	GateErrors []string               `json:"-"`
	tracer     *tracer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric is one reported number; n, when non-zero, is the sample
// count behind a percentile.
type namedMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
}

// measure runs the repetitions for -seconds and computes the metrics.
func measure(def *workloadDef, o options) (*result, error) {
	res := &result{Correct: true}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	gen := func() (inputs, error) { return def.generate(o.seed) }
	var setups []float64
	if !o.trace {
		for i := 0; i < setupReps && (i < minReps || time.Since(start) < budget/10); i++ {
			d, err := setupOnce(def, gen)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
	}
	var reps []rep
	add := func(r rep) {
		if len(reps) > 0 {
			// Only the first repetition's records and layer objects are
			// read after the run; dropping the rest keeps one simulation's
			// state in memory at a time.
			r.col, r.layers = nil, layerObjects{}
		}
		reps = append(reps, r)
		res.Attempted += r.counts.Submitted
		res.Failed += r.counts.Shed + r.counts.Failed
		if r.gateErr != nil {
			res.Correct = false
			res.GateErrors = append(res.GateErrors, r.gateErr.Error())
		}
		if res.Digest == "" {
			res.Digest = r.digest
		} else if r.digest != res.Digest {
			res.Correct = false
			res.GateErrors = append(res.GateErrors, fmt.Sprintf("digest changed between repetitions: %s vs %s", res.Digest, r.digest))
		}
	}
	// The untraced repetitions take the whole end-to-end run, and the first
	// part of a traced run, which needs at least two of them for a median.
	untracedBudget, untracedMin := budget, minReps
	if o.trace {
		untracedBudget, untracedMin = budget*2/5, 2
	}
	for len(reps) < untracedMin || time.Since(start)+lastCost(reps) <= untracedBudget {
		r, err := runRep(def, gen, nil, nil, o.trace)
		if err != nil {
			return nil, err
		}
		add(r)
	}
	untraced := reps
	res.Provenance = newProvenance(def, o, reps[0].engine)
	if !o.trace {
		res.Reps = len(reps)
		for _, r := range reps {
			setups = append(setups, r.setup.Seconds())
		}
		res.Metrics, res.Extra = endToEnd(def, reps, median(setups))
		return res, nil
	}

	tracedStart := len(reps)
	shares := newModuleShares()
	var lastTracer *tracer
	var sched, picks, ticks callTimer
	for len(reps) == tracedStart || time.Since(start)+lastCost(reps) <= budget {
		tr := newTracer()
		var prof bytes.Buffer
		r, err := runRep(def, gen, tr, &prof, false)
		if err != nil {
			return nil, err
		}
		add(r)
		if err := shares.addProfile(prof.Bytes()); err != nil {
			return nil, err
		}
		sched.add(tr.schedTotals())
		picks.add(tr.picks)
		ticks.add(tr.ticks)
		lastTracer = tr
	}
	res.tracer = lastTracer
	res.Reps = len(reps)
	tl := tracedLayers{
		untraced: untraced, traced: reps[tracedStart:], shares: shares,
		sched: sched, picks: picks, ticks: ticks, spans: len(lastTracer.spans),
	}
	res.Metrics, res.Extra = perLayer(def, tl)
	return res, nil
}

// lastCost estimates the next repetition's host time from the last one.
func lastCost(reps []rep) time.Duration {
	if len(reps) == 0 {
		return 0
	}
	r := reps[len(reps)-1]
	return r.setup + r.wall
}

// peakRSSMiB returns the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// write prints the human-readable report, writes the result (and, when
// traced, span) files, and prints the result JSON as the last line.
func (res *result) write(o options, stdout io.Writer) error {
	prov, err := json.Marshal(res.Provenance)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	fmt.Fprintf(stdout, "digest %s reps %d attempted %d failed %d\n", res.Digest, res.Reps, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "metric %-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, m := range res.Extra {
		if m.N > 0 {
			fmt.Fprintf(stdout, "info   %-32s %16.6g %s (n=%d)\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(stdout, "info   %-32s %16.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, e := range res.GateErrors {
		fmt.Fprintf(stdout, "GATE FAILED: %s\n", e)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	file := struct {
		Provenance provenance             `json:"provenance"`
		Correct    bool                   `json:"correct"`
		GateErrors []string               `json:"gate_errors,omitempty"`
		Attempted  int                    `json:"attempted"`
		Failed     int                    `json:"failed"`
		Reps       int                    `json:"reps"`
		Digest     string                 `json:"output_digest"`
		Metrics    map[string]metricValue `json:"metrics"`
		Info       []namedMetric          `json:"info"`
	}{res.Provenance, res.Correct, res.GateErrors, res.Attempted, res.Failed, res.Reps, res.Digest, res.Metrics, res.Extra}
	if err := writeJSONFile(filepath.Join(o.outDir, base+".json"), file); err != nil {
		return err
	}
	if res.tracer != nil {
		f, err := os.Create(filepath.Join(o.outDir, base+"-spans.json"))
		if err != nil {
			return err
		}
		if err := res.tracer.writeSpans(f, res.Provenance); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
