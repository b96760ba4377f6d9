package nodesim

import (
	"strings"
	"testing"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/mckernel"
	"mklite/internal/mos"
	"mklite/internal/sim"
)

func kernels(t *testing.T) (lin, mck, mosk kernel.Kernel) {
	t.Helper()
	l, err := linuxos.Boot(hw.KNL7250SNC4(), linuxos.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := mckernel.Deploy(hw.KNL7250SNC4(), mckernel.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	o, err := mos.Boot(hw.KNL7250SNC4(), mos.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l, m, o
}

func base(k kernel.Kernel) Config {
	return Config{
		Kern:           k,
		Ranks:          16,
		Steps:          20,
		ComputePerStep: 2 * sim.Millisecond,
		Seed:           1,
	}
}

func TestRunValidation(t *testing.T) {
	_, mck, _ := kernels(t)
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil kernel accepted")
	}
	cfg := base(mck)
	cfg.Ranks = 1000
	if _, err := Run(cfg); err == nil {
		t.Fatal("oversubscription accepted")
	}
	cfg = base(mck)
	cfg.Steps = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero steps accepted")
	}
}

func TestDeterministic(t *testing.T) {
	_, mck, _ := kernels(t)
	a, err := Run(base(mck))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(base(mck))
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.NoiseTotal != b.NoiseTotal {
		t.Fatalf("non-deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

func TestLWKMatchesAnalyticWithoutContention(t *testing.T) {
	// With no syscalls and a quiet kernel, the DES must land on the
	// analytic estimate almost exactly.
	_, mck, _ := kernels(t)
	cfg := base(mck)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est := AnalyticEstimate(cfg)
	ratio := float64(res.Elapsed) / float64(est)
	if ratio < 0.99 || ratio > 1.02 {
		t.Fatalf("DES %v vs analytic %v (ratio %v)", res.Elapsed, est, ratio)
	}
}

func TestOffloadsAreServicedAndCounted(t *testing.T) {
	_, mck, _ := kernels(t)
	cfg := base(mck)
	cfg.SyscallsPerStep = 3
	cfg.SyscallService = 2 * sim.Microsecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Ranks * cfg.Steps * cfg.SyscallsPerStep
	if res.OffloadsServiced != want {
		t.Fatalf("serviced %d, want %d", res.OffloadsServiced, want)
	}
	if res.MaxOffloadLatency <= 0 {
		t.Fatal("no offload latency recorded")
	}
}

func TestLinuxServicesSyscallsLocally(t *testing.T) {
	lin, _, _ := kernels(t)
	cfg := base(lin)
	cfg.SyscallsPerStep = 3
	cfg.SyscallService = 2 * sim.Microsecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OffloadsServiced != 0 {
		t.Fatal("Linux should not offload")
	}
	// Local service: worst latency is just trap + service.
	if res.MaxOffloadLatency > 4*sim.Microsecond {
		t.Fatalf("native syscall latency %v", res.MaxOffloadLatency)
	}
}

func TestOffloadBurstsQueue(t *testing.T) {
	// All 64 ranks firing syscalls at once must queue on the 4 OS
	// cores: worst-case latency far above the uncontended round trip.
	_, mck, _ := kernels(t)
	cfg := base(mck)
	cfg.Ranks = 64
	cfg.Steps = 5
	cfg.SyscallsPerStep = 2
	cfg.SyscallService = 5 * sim.Microsecond
	cfg.Barrier = true // synchronised steps align the bursts
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uncontended := mck.Costs().Trap + 5*sim.Microsecond + 3*sim.Microsecond
	if res.MaxOffloadLatency < 3*uncontended {
		t.Fatalf("no queueing visible: worst %v vs uncontended %v",
			res.MaxOffloadLatency, uncontended)
	}
}

func TestNoiseSeparatesKernels(t *testing.T) {
	lin, mck, _ := kernels(t)
	cl, cm := base(lin), base(mck)
	cl.Steps, cm.Steps = 100, 100
	rl, err := Run(cl)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(cm)
	if err != nil {
		t.Fatal(err)
	}
	if rl.NoiseTotal <= rm.NoiseTotal {
		t.Fatalf("Linux noise %v not above LWK %v", rl.NoiseTotal, rm.NoiseTotal)
	}
	if rl.Elapsed <= rm.Elapsed {
		t.Fatalf("Linux elapsed %v not above LWK %v", rl.Elapsed, rm.Elapsed)
	}
}

func TestBarrierCouplesRanks(t *testing.T) {
	// With a per-step barrier, the noisy kernel's steps are gated by
	// the slowest rank: per-step ends must be monotone and count Steps.
	lin, _, _ := kernels(t)
	cfg := base(lin)
	cfg.Barrier = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StepEnds) != cfg.Steps {
		t.Fatalf("%d step ends, want %d", len(res.StepEnds), cfg.Steps)
	}
	for i := 1; i < len(res.StepEnds); i++ {
		if res.StepEnds[i] <= res.StepEnds[i-1] {
			t.Fatal("step ends not monotone")
		}
	}
}

func TestBarrierAmplifiesNoise(t *testing.T) {
	// The DES version of the amplification law: synchronised Linux runs
	// slower than unsynchronised, because every step absorbs the max
	// detour; on the LWK the barrier costs almost nothing.
	lin, mck, _ := kernels(t)
	elapsed := func(k kernel.Kernel, barrier bool) sim.Duration {
		cfg := base(k)
		cfg.Ranks = 32
		cfg.Steps = 200
		cfg.Barrier = barrier
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	linGap := float64(elapsed(lin, true)) / float64(elapsed(lin, false))
	lwkGap := float64(elapsed(mck, true)) / float64(elapsed(mck, false))
	if linGap <= lwkGap {
		t.Fatalf("barrier should hurt Linux (%v) more than the LWK (%v)", linGap, lwkGap)
	}
}

func TestMOSOffloadsThroughMigration(t *testing.T) {
	_, _, mosk := kernels(t)
	cfg := base(mosk)
	cfg.SyscallsPerStep = 2
	cfg.SyscallService = 2 * sim.Microsecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OffloadsServiced != cfg.Ranks*cfg.Steps*cfg.SyscallsPerStep {
		t.Fatal("mOS offloads not serviced")
	}
}

func TestAnalyticEstimateOffloadTerm(t *testing.T) {
	lin, mck, _ := kernels(t)
	cfg := base(mck)
	cfg.SyscallsPerStep = 10
	cfgLin := base(lin)
	cfgLin.SyscallsPerStep = 10
	if AnalyticEstimate(cfg) <= AnalyticEstimate(cfgLin) {
		t.Fatal("offloaded estimate should exceed native")
	}
}

// noOSCores is an offloading kernel whose partition has lost its OS cores,
// so every offload fails to find a target.
type noOSCores struct{ kernel.Kernel }

func (k noOSCores) Partition() kernel.Partition {
	p := k.Kernel.Partition()
	p.OSCores = nil
	return p
}

func TestOffloadErrorSurfaces(t *testing.T) {
	_, mck, _ := kernels(t)
	cfg := base(noOSCores{mck})
	cfg.SyscallsPerStep = 1
	cfg.Barrier = true
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "kernel: no OS cores in partition") {
		t.Fatalf("error %v, want the offload target error", err)
	}
	if strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("offload error reported as a deadlock: %v", err)
	}
}
