package gpu

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paella/internal/channel"
	"paella/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/waves.golden from the current device model")

// waveScenarioLog runs one seeded device scenario and returns its
// observable history as text: every notifQ delivery (with the device's
// resident blocks and free threads at that instant, which exposes any
// reordering between placement posts and block completions), every
// notification-fault verdict, every OnAllPlaced/OnComplete callback, and
// the final Stats. Kernels mix shapes, queues, instrumentation and
// stream dependencies; SMs are retired and restored mid-run.
func waveScenarioLog(seed int64, aggGroup int, notifDelay sim.Time, faulty bool) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	env := sim.NewEnv()
	nq := channel.NewNotifQueue(1 << 14)
	cfg := Config{
		Name: "wave", Microarch: Kepler, NumSMs: 2 + rng.Intn(5),
		SM: SMResources{
			MaxBlocks:    4 + rng.Intn(5),
			MaxThreads:   1024 << uint(rng.Intn(2)),
			MaxRegisters: 65536,
			MaxSharedMem: 48 << 10,
		},
		NumHWQueues: 1 + rng.Intn(4),
		AggGroup:    aggGroup,
		NotifDelay:  notifDelay,
	}
	if rng.Intn(2) == 0 {
		cfg.LaunchOverhead = 2 * sim.Microsecond
	}
	d := NewDevice(env, cfg, nq)
	fmt.Fprintf(&b, "run seed=%d agg=%d notif=%d faulty=%v sms=%d maxb=%d maxt=%d nq=%d ovh=%d\n",
		seed, aggGroup, notifDelay, faulty, cfg.NumSMs, cfg.SM.MaxBlocks, cfg.SM.MaxThreads,
		d.NumQueues(), cfg.LaunchOverhead)

	buf := make([]channel.Notification, 1<<14)
	d.OnNotifPosted(func() {
		n := nq.Poll(buf)
		fmt.Fprintf(&b, "post t=%d res=%d free=%d", env.Now(), d.ResidentBlocks(), d.FreeThreads())
		for _, r := range buf[:n] {
			fmt.Fprintf(&b, " %d/%d/%d/%d", r.Type(), r.SM(), r.GroupCount(), r.KernelID())
		}
		b.WriteByte('\n')
	})
	if faulty {
		calls := 0
		d.SetNotifFault(func(r channel.Notification) channel.NotifVerdict {
			calls++
			v := channel.NotifKeep
			switch {
			case calls%7 == 0:
				v = channel.NotifDrop
			case calls%11 == 0:
				v = channel.NotifDup
			}
			fmt.Fprintf(&b, "fault t=%d res=%d %d/%d/%d/%d v=%d\n", env.Now(), d.ResidentBlocks(),
				r.Type(), r.SM(), r.GroupCount(), r.KernelID(), v)
			return v
		})
	}

	// Durations cluster on the notification delay so that many waves
	// complete exactly when their own placement records land.
	durs := []sim.Time{notifDelay, notifDelay, 3 * sim.Microsecond, 8 * sim.Microsecond}
	if notifDelay == 0 {
		durs = []sim.Time{0, 0, 3 * sim.Microsecond, 7 * sim.Microsecond}
	}
	n := 20 + rng.Intn(20)
	done := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		spec := &KernelSpec{
			Name:            fmt.Sprintf("k%d", i),
			Blocks:          1 + rng.Intn(48),
			ThreadsPerBlock: 32 * (1 + rng.Intn(16)),
			RegsPerThread:   1 + rng.Intn(32),
			BlockDuration:   durs[rng.Intn(len(durs))],
		}
		if rng.Intn(3) == 0 {
			spec.SharedMemPerBlock = 1024 * rng.Intn(16)
		}
		l := &Launch{
			Spec:         spec,
			KernelID:     uint32(i + 1),
			Instrumented: rng.Intn(5) != 0,
			OnAllPlaced:  func() { fmt.Fprintf(&b, "placed t=%d k=%d\n", env.Now(), i+1) },
			OnComplete: func() {
				fmt.Fprintf(&b, "done t=%d k=%d\n", env.Now(), i+1)
				done[i] = true
				d.Kick()
			},
		}
		if i > 0 && rng.Intn(4) == 0 {
			dep := rng.Intn(i)
			l.Ready = func() bool { return done[dep] }
		}
		q := rng.Intn(d.NumQueues())
		at := sim.Time(rng.Intn(200)) * sim.Microsecond
		env.At(at, func() { d.Submit(q, l) })
	}
	for k := 0; k < 3; k++ {
		smi := rng.Intn(cfg.NumSMs)
		at := sim.Time(rng.Intn(150)) * sim.Microsecond
		env.At(at, func() { fmt.Fprintf(&b, "retire t=%d sm=%d ok=%v\n", env.Now(), smi, d.RetireSM(smi)) })
		env.At(at+sim.Time(1+rng.Intn(40))*sim.Microsecond, func() {
			fmt.Fprintf(&b, "restore t=%d sm=%d ok=%v\n", env.Now(), smi, d.RestoreSM(smi))
		})
	}
	for env.Step() {
		d.CheckInvariants()
	}
	fmt.Fprintf(&b, "end t=%d stats=%+v\n", env.Now(), d.Stats())
	return b.String()
}

// waveGoldenLog concatenates the golden scenarios: both aggregation
// extremes, equal and zero notification delay, with and without a
// notification fault.
func waveGoldenLog() string {
	var b strings.Builder
	for _, agg := range []int{1, 16} {
		for _, nd := range []sim.Time{5 * sim.Microsecond, 0} {
			for seed := int64(1); seed <= 3; seed++ {
				b.WriteString(waveScenarioLog(seed*100+int64(agg), agg, nd, seed == 3))
			}
		}
	}
	return b.String()
}

// TestWaveCoalescingGolden pins the device's observable event order —
// notifQ deliveries, fault-hook calls, placement and completion callbacks,
// final counters — to a snapshot taken from the one-event-per-SM model.
// Completions are coalesced into one event per placement wave; this test
// proves the coalescing invisible, including the equal-delay case where a
// wave's placement records and its completions fall due at one instant.
// Regenerate (only for an intended behaviour change) with
// go test ./internal/gpu -run TestWaveCoalescingGolden -update.
func TestWaveCoalescingGolden(t *testing.T) {
	got := waveGoldenLog()
	path := filepath.Join("testdata", "waves.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("wave log diverges at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("wave log length %d lines, golden %d", len(gl), len(wl))
}
