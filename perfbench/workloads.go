package main

import (
	"errors"
	"fmt"

	"paella/internal/autoscale"
	"paella/internal/cluster"
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/cudart"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/llm"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/vram"
	"paella/internal/workload"
)

// workloadDef is one named benchmark workload: its fixed parameters (for
// the provenance stamp), its input generator, and its constructor.
type workloadDef struct {
	name string
	why  string
	// params describes the workload for the provenance stamp.
	params map[string]any
	// slo is the latency bound slo_attain scores against: JCT for DNN
	// traffic, TTFT for generative traffic.
	slo sim.Time
	// generate derives the workload's inputs from the seed alone.
	generate func(seed int64) (inputs, error)
	// build constructs the simulation over generated inputs. tr is nil on
	// untraced runs.
	build func(in inputs, tr *tracer) (*instance, error)
}

// inputs is one generated arrival schedule. DNN workloads fill reqs; the
// generative workload fills llmReqs.
type inputs struct {
	models  []*model.Model
	reqs    []workload.Request
	llmReqs []llm.Request
}

// instance is one constructed simulation, ready to run.
type instance struct {
	world *sim.World
	limit sim.Time
	// counts is the benchmark-side conservation ledger; ledger, when set,
	// replaces it (the autoscaler's Front keeps its own).
	counts autoscale.Counts
	ledger func() autoscale.Counts
	// collector returns every terminal record after the run.
	collector func() *metrics.Collector
	// layers gathers the layer objects whose counters are read after the run.
	layers func() layerObjects
	// usdPerDay bills the fleet after the run, extrapolated to a day.
	usdPerDay func() float64
}

// staticUSDPerDay bills a fixed fleet of n T4s for a day.
func staticUSDPerDay(n int) func() float64 {
	return func() float64 { return float64(n) * t4DollarsPerHour * 24 }
}

// layerObjects are the program objects whose public counters the benchmark
// reads after a run.
type layerObjects struct {
	disps   []*core.Dispatcher
	devices []*gpu.Device
	mems    []*vram.Manager
	links   []*cudart.PCIeLink
	engines []*llm.Engine
	pd      *cluster.PD
	scaler  *autoscale.Scaler
}

const (
	dnnReplicas  = 4
	dnnRatePerGP = 800
	dnnJobs      = 6000

	llmPrefills = 2
	llmDecodes  = 2
	llmRate     = 600
	llmJobs     = 20000
	// llmVRAM trims each engine's device memory so the KV pool runs short
	// under load (preemption-by-recompute) while the longest prompt still
	// fits alone.
	llmVRAM = 12<<30 + 96<<20

	fleetMax      = 6
	fleetModels   = 24
	fleetRate     = 900
	fleetDuration = 8 * sim.Second
	fleetPeriod   = 4 * sim.Second
	fleetSLO      = 50 * sim.Millisecond
)

// workloads lists every benchmark workload in a fixed order.
var workloads = []*workloadDef{dnnZipf(), llmPD(), fleetChurn()}

func findWorkload(name string) (*workloadDef, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func zooNames(models []*model.Model) []string {
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return names
}

// dnnZipf is the paper's core path: many short DNN jobs on a fixed fleet
// under Paella's SRPT-with-fairness policy.
func dnnZipf() *workloadDef {
	return &workloadDef{
		name: "dnn-zipf",
		why:  "the paper's core path on a fixed 4xT4 fleet: per-kernel gpu block placement, the event queue, sim.Proc coroutine switches and dispatcher notifications",
		params: map[string]any{
			"models": "SyntheticZoo(8)", "mix": "zipf(1.1)", "sigma": 2.0,
			"rate_per_s": dnnRatePerGP * dnnReplicas, "jobs": dnnJobs, "clients": 8,
			"replicas": dnnReplicas, "gpu": "Tesla T4", "policy": "paella(10000)",
			"balancer": "least-loaded", "vram": "device capacity (cache starts empty)",
		},
		slo: 10 * sim.Millisecond,
		generate: func(seed int64) (inputs, error) {
			models := model.SyntheticZoo(8)
			reqs, err := workload.Generate(workload.Spec{
				Mix: workload.ZipfMix(zooNames(models), 1.1), Sigma: 2,
				RatePerSec: dnnRatePerGP * dnnReplicas, Jobs: dnnJobs, Clients: 8, Seed: seed,
			})
			return inputs{models: models, reqs: reqs}, err
		},
		build: func(in inputs, tr *tracer) (*instance, error) {
			devs := make([]gpu.Config, dnnReplicas)
			for i := range devs {
				devs[i] = gpu.TeslaT4()
			}
			return buildCluster(in, tr, devs, devs[0].VRAMBytes, false, nil)
		},
	}
}

// fleetChurn is an elastic fleet whose VRAM holds a third of the zoo, so
// weights page in and out while the autoscaler grows and shrinks the pool.
func fleetChurn() *workloadDef {
	return &workloadDef{
		name: "fleet-churn",
		why:  "an autoscaled 1-6 T4 fleet whose VRAM holds a third of a 24-model zoo: weight paging and eviction, autoscale ticks, World barrier on parallel shards",
		params: map[string]any{
			"models": fmt.Sprintf("SyntheticZoo(%d)", fleetModels), "mix": "zipf(0.9)",
			"shape": "diurnal", "base_rate_per_s": fleetRate, "amplitude": 0.6,
			"period": fleetPeriod.String(), "duration": fleetDuration.String(), "sigma": 1.0,
			"replicas": fmt.Sprintf("1..%d", fleetMax), "gpu": "Tesla T4", "policy": "paella(10000)",
			"balancer": "least-loaded", "autoscale": "step", "vram": "a third of the zoo's weights",
		},
		slo: fleetSLO,
		generate: func(seed int64) (inputs, error) {
			models := model.SyntheticZoo(fleetModels)
			reqs, err := workload.GenerateTraffic(workload.TrafficSpec{
				Shape: workload.ShapeDiurnal, Mix: workload.ZipfMix(zooNames(models), 0.9),
				Sigma: 1, BaseRatePerSec: fleetRate, Amplitude: 0.6,
				Period: fleetPeriod, Duration: fleetDuration, Clients: 100000, Seed: seed,
			})
			return inputs{models: models, reqs: reqs}, err
		},
		build: func(in inputs, tr *tracer) (*instance, error) {
			devs := make([]gpu.Config, fleetMax)
			for i := range devs {
				devs[i] = gpu.TeslaT4()
			}
			var weights int64
			for _, m := range in.models {
				weights += int64(m.WeightBytes)
			}
			return buildCluster(in, tr, devs, weights/3, true, &autoscale.Config{
				Min: 1, Max: fleetMax, Initial: 2,
				Interval: 20 * sim.Millisecond,
				SLO: telemetry.SLOConfig{
					Name: "jct@50ms", Deadline: fleetSLO, Target: 0.95,
					Short: 20 * sim.Millisecond, Long: 200 * sim.Millisecond,
				},
			})
		},
	}
}

// buildCluster builds a DNN cluster on a World and schedules the arrivals.
// A non-nil scale puts the fleet under an autoscaler.
func buildCluster(in inputs, tr *tracer, devs []gpu.Config, vramBytes int64, parallel bool, scale *autoscale.Config) (*instance, error) {
	w := sim.NewWorld()
	w.SetParallel(parallel)
	mkCfg := func(int, gpu.Config) core.Config {
		cfg := core.DefaultConfig(tr.schedPolicy(sched.NewPaella(10000)))
		cfg.VRAM = &vram.Config{CapacityBytes: vramBytes}
		return cfg
	}
	c, err := cluster.NewWorldWithConfig(w, devs, mkCfg, tr.gatewayPolicy(cluster.NewLeastLoaded()), nil)
	if err != nil {
		w.Close()
		return nil, err
	}
	for _, m := range in.models {
		if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
			w.Close()
			return nil, err
		}
	}
	inst := &instance{world: w}
	ctrl := w.Ctrl()
	var submit func(core.Request)
	var scaler *autoscale.Scaler
	if scale == nil {
		conn := c.Connect()
		conn.OnComplete = func(uint64) { inst.counts.Completed++ }
		conn.OnFailed = func(_ uint64, err error) {
			if errors.Is(err, gateway.ErrTenantShed) {
				inst.counts.Shed++
			} else {
				inst.counts.Failed++
			}
		}
		submit = func(r core.Request) {
			inst.counts.Submitted++
			conn.Submit(r)
		}
	} else {
		pol, err := autoscale.NewFromConfig(autoscale.PolicyConfig{Name: "step"})
		if err != nil {
			w.Close()
			return nil, err
		}
		cfg := *scale
		cfg.Policy = tr.autoscalePolicy(pol)
		cfg.DollarsPerHour = make([]float64, len(devs))
		for i := range cfg.DollarsPerHour {
			cfg.DollarsPerHour[i] = t4DollarsPerHour
		}
		scaler, err = autoscale.NewScaler(ctrl, c, cfg)
		if err != nil {
			w.Close()
			return nil, err
		}
		front := autoscale.NewFront(scaler)
		submit = front.Submit
		inst.ledger = front.Counts
	}
	last := sim.Time(0)
	for i, r := range in.reqs {
		req := core.Request{ID: uint64(i + 1), Model: r.Model, Client: r.Client, Tenant: r.Tenant, Submit: r.At}
		last = r.At
		ctrl.At(r.At, func() {
			sp := tr.begin(spanSubmit, req.ID)
			submit(req)
			tr.end(sp)
		})
	}
	inst.usdPerDay = staticUSDPerDay(len(devs))
	if scaler != nil {
		scaler.Start()
		// Bill through quiescence (drain tails are paid for), normalized
		// by the offered trace's duration as the autoscale experiment does.
		inst.usdPerDay = func() float64 {
			return scaler.Cost(scaler.QuiesceTime(fleetDuration)) * (24 * 3600 / fleetDuration.Seconds())
		}
	}
	inst.limit = last + 2*sim.Second
	inst.collector = c.Collector
	inst.layers = func() layerObjects {
		lo := layerObjects{scaler: scaler}
		for i := 0; i < c.Size(); i++ {
			d := c.Dispatcher(i)
			lo.disps = append(lo.disps, d)
			lo.devices = append(lo.devices, d.Device())
			if m := d.VRAM(); m != nil {
				lo.mems = append(lo.mems, m)
			}
			if l := d.PCIe(); l != nil {
				lo.links = append(lo.links, l)
			}
		}
		return lo
	}
	return inst, nil
}

// t4DollarsPerHour is the on-demand T4 price the fleet is billed at.
const t4DollarsPerHour = 0.53

// llmPD is generative serving with prefill/decode disaggregation.
func llmPD() *workloadDef {
	return &workloadDef{
		name: "llm-pd",
		why:  "generative serving with prefill/decode split: llm iterations, the sched rbtree, KV page pressure with preemption, two gateway picks and a KV handoff per request",
		params: map[string]any{
			"prefills": llmPrefills, "decodes": llmDecodes, "gpu": "Tesla T4",
			"rate_per_s": llmRate, "jobs": llmJobs, "sigma": 1.5, "clients": 64,
			"tokens": "DefaultTokenSpec", "vram_bytes": llmVRAM, "max_batch": 8,
			"batching": "continuous", "routing": "predicted-latency (submit and handoff)",
		},
		slo: 20 * sim.Millisecond,
		generate: func(seed int64) (inputs, error) {
			arr, err := workload.Generate(workload.Spec{
				Mix: workload.Uniform("llm"), Sigma: 1.5, RatePerSec: llmRate,
				Jobs: llmJobs, Clients: 64, Seed: seed,
			})
			if err != nil {
				return inputs{}, err
			}
			toks, err := workload.SampleTokens(workload.DefaultTokenSpec(seed), len(arr))
			if err != nil {
				return inputs{}, err
			}
			reqs := make([]llm.Request, len(arr))
			for i, r := range arr {
				reqs[i] = llm.Request{
					ID: uint64(i + 1), Client: r.Client, Submit: r.At,
					Prompt: toks[i].Prompt, Output: toks[i].Output,
				}
			}
			return inputs{llmReqs: reqs}, nil
		},
		build: func(in inputs, tr *tracer) (*instance, error) {
			w := sim.NewWorld()
			pd, err := cluster.NewPDWorld(w, cluster.PDConfig{
				LLM: llm.Config{
					Spec: llm.DefaultSpec(), DevCfg: gpu.TeslaT4(),
					VRAMBytes: llmVRAM, MaxBatch: 8, Continuous: true,
				},
				Prefills: llmPrefills, Decodes: llmDecodes,
				MakePolicy: func() gateway.Policy {
					return tr.gatewayPolicy(gateway.NewPredictedLatency())
				},
			})
			if err != nil {
				w.Close()
				return nil, err
			}
			inst := &instance{world: w}
			pd.OnFinish = func(rec metrics.JobRecord) {
				switch {
				case !rec.Failed:
					inst.counts.Completed++
				case rec.FailureReason == gateway.ErrTenantShed.Error():
					inst.counts.Shed++
				default:
					inst.counts.Failed++
				}
			}
			ctrl := w.Ctrl()
			for _, r := range in.llmReqs {
				req := r
				ctrl.At(r.Submit, func() {
					sp := tr.begin(spanSubmit, req.ID)
					inst.counts.Submitted++
					pd.Submit(req)
					tr.end(sp)
				})
			}
			inst.limit = in.llmReqs[len(in.llmReqs)-1].Submit + 30*sim.Second
			inst.collector = pd.Collector
			inst.usdPerDay = staticUSDPerDay(pd.Size())
			inst.layers = func() layerObjects {
				lo := layerObjects{pd: pd}
				for i := 0; i < pd.Size(); i++ {
					e := pd.Engine(i)
					lo.engines = append(lo.engines, e)
					lo.devices = append(lo.devices, e.Device())
					lo.mems = append(lo.mems, e.Mem())
				}
				return lo
			}
			return inst, nil
		},
	}
}
