package gpu

import (
	"math/rand"
	"testing"

	"paella/internal/channel"
	"paella/internal/sim"
)

// refPlace is the historical one-block-per-SM-per-round placement loop,
// kept as the oracle for placeBlocks' closed-form water fill and its
// known-full skip. Each round offers one block to every online SM in
// cursor order, skipping SMs the block no longer fits, until the launch is
// placed or a round places nothing. It mutates sms and returns the per-SM
// placements in first-placement order plus the advanced cursor.
func refPlace(sms []smState, r SMResources, cursor int, spec *KernelSpec, toPlace int) ([]smPlacement, int) {
	_, th, rg, sh := spec.BlockCost()
	nsm := len(sms)
	var out []smPlacement
	for toPlace > 0 {
		placed := false
		for i := 0; i < nsm && toPlace > 0; i++ {
			smi := (cursor + i) % nsm
			sm := &sms[smi]
			if sm.offline || sm.blocks+1 > r.MaxBlocks || sm.threads+th > r.MaxThreads ||
				sm.regs+rg > r.MaxRegisters || sm.shmem+sh > r.MaxSharedMem {
				continue
			}
			sm.blocks++
			sm.threads += th
			sm.regs += rg
			sm.shmem += sh
			toPlace--
			pi := -1
			for k := range out {
				if out[k].sm == smi {
					pi = k
					break
				}
			}
			if pi < 0 {
				out = append(out, smPlacement{sm: smi})
				pi = len(out) - 1
			}
			out[pi].n++
			placed = true
		}
		if !placed {
			break
		}
	}
	return out, (cursor + 1) % nsm
}

// randomFittingSpec draws a block shape that fits an empty SM of r.
func randomFittingSpec(rng *rand.Rand, r SMResources) *KernelSpec {
	for {
		k := &KernelSpec{
			Name:            "f",
			Blocks:          1 + rng.Intn(64),
			ThreadsPerBlock: 32 * (1 + rng.Intn(32)),
			RegsPerThread:   rng.Intn(64),
			BlockDuration:   sim.Time(1+rng.Intn(5)) * sim.Microsecond,
		}
		if rng.Intn(2) == 0 {
			k.SharedMemPerBlock = 1024 * rng.Intn(48)
		}
		if k.FitsSM(r) {
			return k
		}
	}
}

// setBackground gives every SM of d random occupancy that never drains and
// rebuilds the device's aggregates and candidate index from it, so that
// the oracle exercises the index as the device maintains it.
func setBackground(d *Device, rng *rand.Rand) {
	r := d.cfg.SM
	for i := range d.sms {
		d.sms[i] = smState{
			blocks:  rng.Intn(r.MaxBlocks + 1),
			threads: rng.Intn(r.MaxThreads + 1),
			regs:    rng.Intn(r.MaxRegisters + 1),
			shmem:   rng.Intn(r.MaxSharedMem + 1),
		}
	}
	d.reindex()
}

// placeOracleTrial drives one random device through placements, wave
// completions, SM retirements and restorations and cursor jumps, checking
// every placeBlocks call against refPlace on a snapshot of the SMs. It
// returns how many calls took the known-full skip.
func placeOracleTrial(t *testing.T, rng *rand.Rand) (skips int) {
	t.Helper()
	r := SMResources{
		MaxBlocks:    1 + rng.Intn(16),
		MaxThreads:   256 * (1 + rng.Intn(8)),
		MaxRegisters: 16384 * (1 + rng.Intn(4)),
		MaxSharedMem: 1024 * rng.Intn(65),
	}
	// Up to 130 SMs, so the candidate bitsets span three words.
	nsm := 1 + rng.Intn(12)
	if rng.Intn(3) == 0 {
		nsm = 1 + rng.Intn(130)
	}
	cfg := Config{Name: "oracle", Microarch: Kepler, NumSMs: nsm, SM: r, NumHWQueues: 1}
	env := sim.NewEnv()
	d := NewDevice(env, cfg, nil)
	tr := NewTrace()
	d.SetTrace(tr)
	setBackground(d, rng)
	for i := range d.sms {
		if rng.Intn(6) == 0 {
			d.RetireSM(i)
		}
	}
	d.smCursor = rng.Intn(cfg.NumSMs)
	launches := make([]*Launch, 1+rng.Intn(4))
	fresh := func() *Launch {
		l := &Launch{Spec: randomFittingSpec(rng, r), dev: d}
		l.toPlace, l.toFinish = l.Spec.Blocks, l.Spec.Blocks
		return l
	}
	for i := range launches {
		launches[i] = fresh()
	}
	snap := make([]smState, cfg.NumSMs)
	for op := 0; op < 80; op++ {
		switch x := rng.Intn(10); {
		case x < 5:
			i := rng.Intn(len(launches))
			l := launches[i]
			if l.fullEpoch == d.freeEpoch {
				skips++
			}
			copy(snap, d.sms)
			want, wantCursor := refPlace(snap, r, d.smCursor, l.Spec, l.toPlace)
			before, seg := l.toPlace, len(tr.segs)
			got := d.placeBlocks(l)
			segs := tr.segs[seg:]
			wantN := 0
			for _, p := range want {
				wantN += p.n
			}
			if got != wantN || l.toPlace != before-got || d.smCursor != wantCursor || len(segs) != len(want) {
				t.Fatalf("op %d: placed %d (cursor %d, %d SMs), reference placed %d (cursor %d, %d SMs)",
					op, got, d.smCursor, len(segs), wantN, wantCursor, len(want))
			}
			for k, p := range want {
				if segs[k].SM != p.sm || segs[k].Blocks != p.n {
					t.Fatalf("op %d: wave entry %d is SM %d×%d, reference SM %d×%d",
						op, k, segs[k].SM, segs[k].Blocks, p.sm, p.n)
				}
			}
			for k := range snap {
				if snap[k] != d.sms[k] {
					t.Fatalf("op %d: SM %d state %+v, reference %+v", op, k, d.sms[k], snap[k])
				}
			}
			if l.toPlace == 0 {
				launches[i] = fresh()
			}
		case x < 7:
			env.Step()
			d.CheckInvariants()
		case x < 8:
			d.RetireSM(rng.Intn(cfg.NumSMs))
		case x < 9:
			d.RestoreSM(rng.Intn(cfg.NumSMs))
		default:
			d.smCursor = rng.Intn(cfg.NumSMs)
		}
	}
	return skips
}

// TestPlaceBlocksAgainstReference cross-checks placeBlocks — the
// closed-form water fill plus the known-full skip — against the historical
// per-block loop over random SM occupancy, block shapes, retired SMs and
// cursor positions, comparing the placements, their order, the SM
// resource state and the resulting cursor.
func TestPlaceBlocksAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	skips := 0
	for trial := 0; trial < 400; trial++ {
		skips += placeOracleTrial(t, rng)
	}
	if skips == 0 {
		t.Fatal("the known-full skip never fired; the oracle does not cover it")
	}
}

func FuzzPlaceBlocks(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1009} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		placeOracleTrial(t, rand.New(rand.NewSource(seed)))
	})
}

// waveBenchDevice is a T4-shaped device with an instrumented notifQ whose
// posted hook drains into a fixed buffer, so a run allocates nothing of
// its own.
func waveBenchDevice(notifDelay sim.Time) (*sim.Env, *Device) {
	env := sim.NewEnv()
	nq := channel.NewNotifQueue(1 << 12)
	cfg := TeslaT4()
	cfg.LaunchOverhead = 0
	cfg.NotifDelay = notifDelay
	d := NewDevice(env, cfg, nq)
	buf := make([]channel.Notification, 1<<12)
	d.OnNotifPosted(func() { nq.Poll(buf) })
	return env, d
}

// waveBenchSpec needs several waves on a T4 and leaves blocks unplaced
// after the first, so a run exercises placement, the known-full skip,
// notification posts and wave completions.
var waveBenchSpec = KernelSpec{
	Name: "bench", Blocks: 3 * 40 * 4, ThreadsPerBlock: 256, RegsPerThread: 32,
	BlockDuration: 5 * sim.Microsecond,
}

// runWaveKernels submits one instrumented launch per hardware queue and
// runs the device until every block has completed.
func runWaveKernels(env *sim.Env, d *Device, ls []Launch) {
	for q := range ls {
		ls[q] = Launch{Spec: &waveBenchSpec, KernelID: uint32(q + 1), Instrumented: true}
		d.Submit(q, &ls[q])
	}
	env.Run()
}

// TestWavePathAllocFree: once pools are warm, placing blocks, posting
// their notifications and completing their waves allocates nothing —
// with placement records posted on their own and folded into the wave.
func TestWavePathAllocFree(t *testing.T) {
	for _, nd := range []sim.Time{sim.Microsecond, waveBenchSpec.BlockDuration} {
		env, d := waveBenchDevice(nd)
		ls := make([]Launch, 4)
		runWaveKernels(env, d, ls)
		if avg := testing.AllocsPerRun(50, func() { runWaveKernels(env, d, ls) }); avg != 0 {
			t.Errorf("NotifDelay %v: %.1f allocs per run, want 0", nd, avg)
		}
		if st := d.Stats(); st.BlocksCompleted != st.BlocksPlaced || st.KernelsCompleted != st.KernelsSubmitted {
			t.Fatalf("NotifDelay %v: incomplete run: %+v", nd, st)
		}
	}
}

// BenchmarkPlaceBlocks times one placement wave onto an idle T4 plus the
// wave's completion event ("wave"), the same for a small launch on a T4
// where only one SM in four has a free block slot ("saturated"), and the
// known-full skip on a device whose SMs the launch has already filled
// ("full").
func BenchmarkPlaceBlocks(b *testing.B) {
	b.Run("wave", func(b *testing.B) {
		env, d := waveBenchDevice(sim.Microsecond)
		spec := waveBenchSpec
		spec.Blocks = 40 * 4
		var l Launch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l = Launch{Spec: &spec, dev: d, toPlace: spec.Blocks, toFinish: spec.Blocks}
			d.placeBlocks(&l)
			env.Run()
		}
	})
	b.Run("saturated", func(b *testing.B) {
		env, d := waveBenchDevice(sim.Microsecond)
		for i := range d.sms {
			if i%4 != 0 {
				d.sms[i].blocks, d.sms[i].threads = d.cfg.SM.MaxBlocks, d.cfg.SM.MaxThreads
			}
		}
		d.reindex()
		spec := waveBenchSpec
		spec.Blocks = 8
		var l Launch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l = Launch{Spec: &spec, dev: d, toPlace: spec.Blocks, toFinish: spec.Blocks}
			d.placeBlocks(&l)
			env.Run()
		}
	})
	b.Run("full", func(b *testing.B) {
		_, d := waveBenchDevice(sim.Microsecond)
		l := Launch{Spec: &waveBenchSpec, dev: d, toPlace: waveBenchSpec.Blocks, toFinish: waveBenchSpec.Blocks}
		d.placeBlocks(&l)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.placeBlocks(&l)
		}
	})
}

// BenchmarkSchedulePass times the block scheduler end to end: four
// multi-wave instrumented launches, one per hardware queue, scheduled,
// placed, notified and completed.
func BenchmarkSchedulePass(b *testing.B) {
	env, d := waveBenchDevice(sim.Microsecond)
	ls := make([]Launch, 4)
	runWaveKernels(env, d, ls)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runWaveKernels(env, d, ls)
	}
}
