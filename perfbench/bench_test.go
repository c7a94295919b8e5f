package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"sort"
	"testing"
	"time"

	"paella/internal/autoscale"
)

// smallGen generates the workload for seed and keeps only its first n
// requests, so tests run whole simulations quickly.
func smallGen(def *workloadDef, seed int64, n int) generator {
	return func() (inputs, error) {
		in, err := def.generate(seed)
		if len(in.reqs) > n {
			in.reqs = in.reqs[:n]
		}
		if len(in.llmReqs) > n {
			in.llmReqs = in.llmReqs[:n]
		}
		return in, err
	}
}

func TestAttributeSyntheticStacks(t *testing.T) {
	const in = "paella/internal/"
	f := func(fn, file string) frame { return frame{fn: fn, file: file} }
	rt := func(fn string) frame { return frame{fn: fn, file: "runtime/x.go"} }
	cases := []struct {
		want  string
		stack []frame
	}{
		{"gpu.place", []frame{rt("runtime.memclrNoHeapPointers"), f(in+"gpu.(*Device).placeBlocks", "internal/gpu/device.go"), f(in+"sim.(*Env).Step", "internal/sim/sim.go")}},
		{"gpu", []frame{f(in+"gpu.(*Device).schedulePass", "internal/gpu/device.go")}},
		{"sim.proc", []frame{rt("runtime.chansend1"), f(in+"sim.(*Proc).park", "/src/internal/sim/proc.go"), f(in+"core.(*Dispatcher).loop", "internal/core/core.go")}},
		{"sim.queue", []frame{f(in+"sim.(*eventQueue).siftDown", "internal/sim/heap.go")}},
		{"sim.queue", []frame{f(in+"sim.(*arena).alloc", "internal/sim/arena.go")}},
		{"sim.world", []frame{f(in+"sim.(*World).flushPosts", "internal/sim/world.go")}},
		{"sim.env", []frame{f(in+"sim.(*Env).Step", "internal/sim/sim.go")}},
		{"sched", []frame{f(in+"rbtree.(*Tree[...]).Insert", "internal/rbtree/rbtree.go"), f(in+"sched.(*Paella).Add", "internal/sched/paella.go")}},
		// Runtime frames, garbage-collection assists included, are charged
		// to the module that called into the runtime.
		{"vram", []frame{rt("runtime.gcAssistAlloc"), rt("runtime.mallocgc"), f(in+"vram.(*Manager).Pin", "internal/vram/vram.go")}},
		{"llm", []frame{rt("runtime.memmove"), f(in+"llm.(*Engine).maybeIterate", "internal/llm/engine.go"), f(in+"sim.(*Env).Step", "internal/sim/sim.go")}},
		{"bench", []frame{rt("runtime.nanotime"), f("time.Now", "time/time.go"), f("main.(*timedSched).Add", "perfbench/trace.go"), f(in+"core.(*Dispatcher).admit", "internal/core/core.go")}},
		{"runtime.gc", []frame{rt("runtime.scanobject"), rt("runtime.gcDrain"), rt("runtime.gcBgMarkWorker")}},
		{"runtime.sched", []frame{rt("runtime.futex"), rt("runtime.findRunnable"), rt("runtime.schedule"), rt("runtime.park_m"), rt("runtime.mcall")}},
		{"other", []frame{rt("runtime.main")}},
		{"other", nil},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	m := newModuleShares()
	if err := m.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if m.total == 0 || m.samples["bench"] == 0 {
		t.Fatalf("expected samples charged to the benchmark's spin loop, got %v", m.samples)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	// Field 2, wire type 2, declared length 5 with one byte of payload.
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

// TestDecoratorsTransparent runs every workload untraced and traced (timing
// decorators, spans and a CPU profile) and requires identical answers.
func TestDecoratorsTransparent(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			gen := smallGen(def, 3, 1200)
			plain, err := runRep(def, gen, nil, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			var prof bytes.Buffer
			traced, err := runRep(def, gen, tr, &prof, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []rep{plain, traced} {
				if r.gateErr != nil {
					t.Fatal(r.gateErr)
				}
			}
			if plain.digest != traced.digest {
				t.Fatalf("tracing changed the answers: %s vs %s", plain.digest, traced.digest)
			}
			if plain.steps != traced.steps {
				t.Fatalf("tracing changed the event count: %d vs %d", plain.steps, traced.steps)
			}
			if tr.picks.calls == 0 || len(tr.spans) == 0 {
				t.Fatalf("decorators recorded nothing: %d picks, %d spans", tr.picks.calls, len(tr.spans))
			}
			if def.name != "llm-pd" && tr.schedTotals().calls == 0 {
				t.Fatal("scheduling-policy decorator recorded no calls")
			}
			if def.name == "fleet-churn" && tr.ticks.calls == 0 {
				t.Fatal("autoscale decorator recorded no ticks")
			}
			for i, s := range tr.spans {
				if s.Parent >= int32(i) {
					t.Fatalf("span %d has parent %d, not an earlier span", i, s.Parent)
				}
			}
		})
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names, declared []string
	for _, w := range workloads {
		names = append(names, w.name+": "+w.why)
	}
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name+": "+w.Why)
	}
	if !slices.Equal(names, declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}

	def := workloads[0]
	gen := smallGen(def, 1, 300)
	plain, err := runRep(def, gen, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var prof bytes.Buffer
	traced, err := runRep(def, gen, tr, &prof, false)
	if err != nil {
		t.Fatal(err)
	}
	shares := newModuleShares()
	if err := shares.addProfile(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	e2e, _ := endToEnd(def, []rep{plain}, plain.setup.Seconds())
	layers, _ := perLayer(def, tracedLayers{untraced: []rep{plain}, traced: []rep{traced}, shares: shares})

	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got map[string]metricValue, want []struct{ Name, Unit string }) {
		t.Helper()
		var gotNames, wantNames []string
		for n, m := range got {
			gotNames = append(gotNames, n)
			if !valid.MatchString(n) {
				t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", kind, n)
			}
			for _, w := range want {
				if w.Name == n && w.Unit != m.Unit {
					t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, n, m.Unit, w.Unit)
				}
			}
		}
		for _, w := range want {
			wantNames = append(wantNames, w.Name)
		}
		sort.Strings(gotNames)
		sort.Strings(wantNames)
		if !slices.Equal(gotNames, wantNames) {
			t.Errorf("%s metrics %v, BENCHMARK.json declares %v", kind, gotNames, wantNames)
		}
	}
	check("end_to_end", e2e, bf.EndToEnd)
	check("per_layer", layers, bf.PerLayer)
}

func TestWorkloadGenerationByteStable(t *testing.T) {
	encode := func(def *workloadDef, seed int64) []byte {
		in, err := def.generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, m := range in.models {
			names = append(names, m.Name)
		}
		data, err := json.Marshal(struct {
			Models []string
			Reqs   any
			LLM    any
		}{names, in.reqs, in.llmReqs})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, def := range workloads {
		a, b := encode(def, 7), encode(def, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", def.name)
		}
		if c := encode(def, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", def.name)
		}
	}
}

func TestGateRejectsBrokenLedger(t *testing.T) {
	def := workloads[1]
	r, err := runRep(def, smallGen(def, 1, 200), nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.gateErr != nil {
		t.Fatalf("clean run failed the gate: %v", r.gateErr)
	}
	if err := gate(r, 201); err == nil {
		t.Error("gate accepted a request that was generated but never submitted")
	}
	r.counts = autoscale.Counts{Submitted: r.counts.Submitted, Completed: r.counts.Completed - 1}
	if err := gate(r, r.counts.Submitted); err == nil {
		t.Error("gate accepted a request with no terminal outcome")
	}
}
