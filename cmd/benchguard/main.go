// Command benchguard is the CI bench-regression gate for the committed
// BENCH_scale.json. It re-runs the scale experiment's quick sweep
// in-process and compares the result against the committed document:
//
//   - Hard failures (exit 1): the committed file is missing, unparsable,
//     or structurally wrong; the committed largest cell does not carry a
//     ≥2× speedup over the seed baseline; any freshly-run cell reports
//     World serial and parallel as non-identical; the hot loop's measured
//     steady-state allocation rate reaches max-allocs-per-event (default
//     0.5 — the point where a `go test -benchmem` report would round to
//     ≥1 alloc per event).
//   - Timing (exit 1 below -floor, a warning below half): completed jobs
//     per wall-second of a fresh one-replica probe against the committed
//     largest cell's first engine. Jobs per second, not events per
//     second: a change that removes events speeds the simulator up while
//     lowering its event rate. Timing on shared CI machines is noisy, so
//     only an order-of-magnitude collapse is fatal. Events per job is
//     printed beside it as a deterministic count. (The allocation gate has
//     no such latitude: allocation counts are deterministic, so it is a
//     hard gate even on noisy hardware.)
//
// Usage:
//
//	go run ./cmd/benchguard [-ref BENCH_scale.json] [-min-speedup 2.0] [-floor 0.1] [-max-allocs-per-event 0.5]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"paella/internal/experiments"
)

func main() {
	ref := flag.String("ref", "BENCH_scale.json", "committed scale benchmark document")
	minSpeedup := flag.Float64("min-speedup", 2.0, "required speedup over the seed baseline in the committed document")
	floor := flag.Float64("floor", 0.1, "fresh completed jobs per wall-second may not fall below this fraction of the committed rate (hard gate)")
	maxAllocs := flag.Float64("max-allocs-per-event", 0.5, "steady-state heap allocations per engine event must stay below this (hard gate)")
	flag.Parse()

	data, err := os.ReadFile(*ref)
	if err != nil {
		fatal("reading reference: %v", err)
	}
	var committed experiments.ScaleReport
	if err := json.Unmarshal(data, &committed); err != nil {
		fatal("parsing %s: %v", *ref, err)
	}
	if committed.Schema != "paella-scale-bench/v1" {
		fatal("%s: unexpected schema %q", *ref, committed.Schema)
	}
	if len(committed.Cells) == 0 {
		fatal("%s: no cells", *ref)
	}
	for _, c := range committed.Cells {
		if !c.Identical {
			fatal("%s: committed cell replicas=%d recorded serial/parallel divergence", *ref, c.Replicas)
		}
		if len(c.Engines) < 3 {
			fatal("%s: committed cell replicas=%d has %d engines, want ≥3", *ref, c.Replicas, len(c.Engines))
		}
	}
	last := committed.Cells[len(committed.Cells)-1]
	if committed.SeedBaseline == nil {
		fatal("%s: missing seed_baseline", *ref)
	}
	if committed.SpeedupVsSeed < *minSpeedup {
		fatal("%s: speedup_vs_seed %.2f < required %.2f", *ref, committed.SpeedupVsSeed, *minSpeedup)
	}
	fmt.Printf("committed: largest cell %d replicas × %d jobs, %.2fx over seed %s\n",
		last.Replicas, last.Jobs, committed.SpeedupVsSeed, committed.SeedBaseline.Commit)

	// Fresh quick run. The scale experiment itself fails on any
	// serial/parallel metric divergence, which is the correctness half of
	// this gate.
	exp, err := experiments.ByName("scale")
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println("running quick scale sweep...")
	if err := exp.Run(os.Stdout, experiments.Quick); err != nil {
		fatal("quick scale run failed: %v", err)
	}

	// Timing gate: compare the committed legacy-engine job rate to a
	// second, tiny in-process measurement. CI boxes differ wildly from the
	// machine that generated the committed file, so only a collapse below
	// floor × committed is fatal; anything else is advisory.
	base := last.Engines[0]
	refRate := float64(base.Completed) / base.WallSec
	fresh, err := experiments.MeasureScaleCell(1, 400)
	if err != nil {
		fatal("measuring fresh cell: %v", err)
	}
	if fresh.Completed == 0 {
		fatal("fresh cell completed no jobs")
	}
	freshRate := float64(fresh.Completed) / fresh.WallSec
	ratio := freshRate / refRate
	fmt.Printf("throughput: fresh %.0f jobs/s vs committed %.0f jobs/s (%.2fx); fresh %.0f events/job\n",
		freshRate, refRate, ratio, float64(fresh.Steps)/float64(fresh.Completed))
	switch {
	case ratio < *floor:
		fatal("completed jobs per wall-second collapsed below %.0f%% of the committed rate", *floor*100)
	case ratio < 0.5:
		fmt.Println("warning: completed jobs per wall-second below half the committed rate (advisory; CI hardware varies)")
	}

	// Allocation gate: the hot loop must stay allocation-free per event in
	// steady state. Unlike wall clocks, this number is machine-independent.
	apew, err := experiments.MeasureAllocsPerEvent(1, 600)
	if err != nil {
		fatal("measuring allocs/event: %v", err)
	}
	fmt.Printf("hot loop: %.4f allocs/event steady-state (gate: < %.2f)\n", apew, *maxAllocs)
	if apew >= *maxAllocs {
		fatal("hot loop allocates %.4f per event (≥ %.2f): the zero-allocation invariant regressed", apew, *maxAllocs)
	}
	fmt.Println("benchguard: OK")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", args...)
	os.Exit(1)
}
