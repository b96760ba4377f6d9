package main

import (
	"mklite/internal/hw"
	"mklite/internal/ihk"
	"mklite/internal/linuxos"
	"mklite/internal/mckernel"
	"mklite/internal/mos"
	"mklite/internal/noise"
	"mklite/internal/sim"
)

// probeBudget is the CPU time each unit-cost probe spends, long enough to
// average over several hundred calls of the slowest probe.
const probeBudget = 0.15

// probeSeed fixes the probes' noise draws, so that every traced run times
// the same calls whatever the workload's seed.
const probeSeed = 0x9b0be

// noiseProbe is one direct-call point of noise.MaxDetourRank.
type noiseProbe struct {
	metric  string
	profile func() *noise.Profile
	ranks   int
}

// noiseProbes straddle the 1,024-rank switch between the exact per-rank
// path and the order-statistic path; n27 is a small Lulesh job.
var noiseProbes = []noiseProbe{
	{"noise.max_detour_us.linux.n27", noise.LinuxTuned, 27},
	{"noise.max_detour_us.linux.n1024", noise.LinuxTuned, 1024},
	{"noise.max_detour_us.linux.n4096", noise.LinuxTuned, 4096},
	{"noise.max_detour_us.mckernel.n1024", noise.McKernelProfile, 1024},
}

// probeNoise returns the host CPU microseconds per MaxDetourRank call over
// a 1 ms window, for each probe point.
func probeNoise(m map[string]float64) {
	for i, p := range noiseProbes {
		rng := sim.NewRNG(sim.StreamSeed(probeSeed, uint64(i)))
		prof := p.profile()
		calls := 0
		start := cpuSeconds()
		for cpuSeconds()-start < probeBudget {
			for j := 0; j < 32; j++ {
				noise.MaxDetourRank(rng, prof, p.ranks, sim.Millisecond)
			}
			calls += 32
		}
		m[p.metric] = (cpuSeconds() - start) / float64(calls) * 1e6
	}
}

// probeBoots returns the host CPU milliseconds per kernel boot, booting on a
// fresh node each time. The McKernel figure is ihk.Reserve plus
// mckernel.Boot; the Linux host it reserves from is booted untimed.
func probeBoots(m map[string]float64) error {
	boots := []struct {
		metric string
		boot   func() (func() error, error) // untimed preparation, timed boot
	}{
		{"kernel.boot_ms.linux", func() (func() error, error) {
			node := hw.KNL7250SNC4()
			return func() error { _, err := linuxos.Boot(node, linuxos.DefaultConfig()); return err }, nil
		}},
		{"kernel.boot_ms.mckernel", func() (func() error, error) {
			lin, err := linuxos.Boot(hw.KNL7250SNC4(), linuxos.DefaultConfig())
			return func() error {
				g, err := ihk.Reserve(lin, ihk.DefaultReserveOptions())
				if err != nil {
					return err
				}
				_, err = mckernel.Boot(lin, g, mckernel.DefaultOptions())
				return err
			}, err
		}},
		{"kernel.boot_ms.mos", func() (func() error, error) {
			node := hw.KNL7250SNC4()
			return func() error { _, err := mos.Boot(node, mos.DefaultConfig()); return err }, nil
		}},
	}
	for _, b := range boots {
		var spent float64
		n := 0
		for spent < probeBudget {
			boot, err := b.boot()
			if err != nil {
				return err
			}
			t0 := cpuSeconds()
			if err := boot(); err != nil {
				return err
			}
			spent += cpuSeconds() - t0
			n++
		}
		m[b.metric] = spent / float64(n) * 1e3
	}
	return nil
}
