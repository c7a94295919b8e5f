package core

import (
	"testing"

	"paella/internal/compiler"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
)

// TestOnlineRefinementConverges corrupts a model's profiled means and
// checks that, with RefineOnline enabled, serving traffic restores them to
// the observed execution times (§6's "profiles can be further refined
// online").
func TestOnlineRefinementConverges(t *testing.T) {
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	devCfg.LaunchOverhead = 0
	cfg := DefaultConfig(sched.NewSRPT())
	cfg.RefineOnline = true
	cfg.RefineEvery = 4
	d := NewWithDevice(env, devCfg, cfg)

	ins := compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 1)
	// Corrupt the profile: pretend every kernel takes 10× its real time.
	for _, k := range ins.Model.Kernels {
		for i := 0; i < 50; i++ {
			ins.Profile.Observe(k.Name, 10*k.BlockDuration)
		}
	}
	if err := d.RegisterModel(ins); err != nil {
		t.Fatal(err)
	}
	d.Start()

	conn := d.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	const jobs = 100
	for i := 0; i < jobs; i++ {
		id := uint64(i + 1)
		env.At(sim.Time(i)*200*sim.Microsecond, func() {
			conn.Submit(Request{ID: id, Model: "tinynet", Client: 0, Submit: env.Now()})
		})
	}
	env.Run()
	if done != jobs {
		t.Fatalf("completed %d of %d", done, jobs)
	}
	// After 100 jobs × 3 kernels of true observations, the corrupted 10×
	// means must have been pulled back toward reality.
	for _, k := range ins.Model.Kernels {
		mean := ins.Profile.MeanTime(k.Name)
		if mean == 0 {
			t.Fatalf("kernel %s lost its stats", k.Name)
		}
		if mean > 4*k.BlockDuration {
			t.Errorf("kernel %s mean %v not converging toward %v",
				k.Name, mean, k.BlockDuration)
		}
	}
	// The suffix table must have been rebuilt from the refined means: the
	// fresh-job estimate should be far below the corrupted 10× total.
	if got := ins.Profile.TotalTime(); got > 4*ins.Model.KernelTime() {
		t.Errorf("TotalTime %v still reflects corrupted profile (real %v)",
			got, ins.Model.KernelTime())
	}
}

// TestRefinementDisabledByDefault: without the flag, serving traffic does
// not disturb the offline profile.
func TestRefinementDisabledByDefault(t *testing.T) {
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	d := NewWithDevice(env, devCfg, DefaultConfig(sched.NewSRPT()))
	ins := compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 1)
	before := ins.Profile.TotalTime()
	if err := d.RegisterModel(ins); err != nil {
		t.Fatal(err)
	}
	d.Start()
	conn := d.Connect()
	env.At(0, func() {
		conn.Submit(Request{ID: 1, Model: "tinynet", Client: 0, Submit: 0})
	})
	env.Run()
	if got := ins.Profile.TotalTime(); got != before {
		t.Fatalf("profile changed without RefineOnline: %v → %v", before, got)
	}
}
