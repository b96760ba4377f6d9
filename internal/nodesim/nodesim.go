// Package nodesim is a discrete-event simulation of a single node: every
// rank is a cooperative process on its own core, OS noise stretches its
// compute phases, offloaded system calls travel through the IKC to a
// finite pool of Linux-side servicing cores (where they queue), and ranks
// synchronise through an intra-node barrier.
//
// The cluster harness (internal/cluster) composes the same mechanisms
// analytically for speed; nodesim executes them event by event, which
// captures what the analytic model folds away — offload queueing under
// bursts and barrier-edge effects — and serves as its validation harness
// (see the cross-check tests).
package nodesim

import (
	"fmt"

	"mklite/internal/fault"
	"mklite/internal/ihk"
	"mklite/internal/kernel"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// Config describes one node-level run.
type Config struct {
	// Kern supplies scheduling, costs, noise and the partition.
	Kern kernel.Kernel
	// Ranks is the number of application processes (each pinned to its
	// own application core; must not exceed the partition).
	Ranks int
	// Steps is the number of timesteps.
	Steps int
	// ComputePerStep is the pure per-rank compute time per step.
	ComputePerStep sim.Duration
	// SyscallsPerStep is the number of offload-class syscalls each rank
	// issues per step (device-file operations).
	SyscallsPerStep int
	// SyscallService is the Linux-side service time per call.
	SyscallService sim.Duration
	// Barrier synchronises all ranks at the end of every step.
	Barrier bool
	// Seed drives the noise sampling.
	Seed uint64
	// Sink receives mechanism counters and virtual-time events (per-rank
	// compute spans, step marks, the offload queue-depth timeline). Nil
	// turns tracing off; results are identical either way.
	Sink *trace.Sink
	// Faults, when non-nil and non-empty, makes the offload channel
	// flaky: issues stall with the plan's probability and are re-issued
	// after the timeout, bounded by the plan's retry count (see
	// internal/fault). The injector draws from its own stream, so a nil
	// or empty plan leaves the run byte-identical.
	Faults *fault.Plan
}

// Result is a node-level run's outcome.
type Result struct {
	// Elapsed is the virtual time from start to the last rank's finish.
	Elapsed sim.Duration
	// StepEnds records when each step's barrier completed (empty when
	// Barrier is false).
	StepEnds []sim.Time
	// OffloadsServiced counts completed offloaded syscalls.
	OffloadsServiced int
	// MaxOffloadLatency is the worst single offload round trip
	// (queueing included).
	MaxOffloadLatency sim.Duration
	// NoiseTotal is the summed noise detour across ranks.
	NoiseTotal sim.Duration
	// OffloadStalls counts offload issues that stalled and were
	// re-issued after the fault plan's timeout.
	OffloadStalls int
}

// barrier is a reusable all-ranks rendezvous. One Signal serves every
// step: Fire schedules the current waiters and empties the signal, so the
// next step's arrivals wait on it afresh.
type barrier struct {
	n       int
	arrived int
	sig     sim.Signal
}

// wait blocks until all n participants have arrived.
func (b *barrier) wait(p *sim.Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.sig.Fire(p.Engine())
		// The releasing rank does not wait; it continues once the
		// others are scheduled to wake.
		return
	}
	p.WaitSignal(&b.sig)
}

// Run executes the node simulation.
func Run(cfg Config) (Result, error) {
	if cfg.Kern == nil {
		return Result{}, fmt.Errorf("nodesim: nil kernel")
	}
	part := cfg.Kern.Partition()
	if cfg.Ranks <= 0 || cfg.Ranks > len(part.AppCores) {
		return Result{}, fmt.Errorf("nodesim: %d ranks for %d application cores", cfg.Ranks, len(part.AppCores))
	}
	if cfg.Steps <= 0 {
		return Result{}, fmt.Errorf("nodesim: non-positive step count")
	}

	if err := cfg.Faults.Validate(); err != nil {
		return Result{}, err
	}

	eng := sim.NewEngine(cfg.Seed)
	eng.SetSink(cfg.Sink)
	rootRNG := eng.RNG().Split()
	costs := cfg.Kern.Costs()
	prof := cfg.Kern.Noise()
	sink := cfg.Sink
	// The injector draws from its own stream, never the engine's, so an
	// empty plan (nil injector) leaves the event timeline untouched.
	inj := fault.NewInjector(cfg.Faults, sim.StreamSeed(cfg.Seed, fault.StreamNode))

	// Offloads are serviced by the partition's OS cores. Native-syscall
	// kernels (Linux) execute locally instead.
	offloaded := cfg.Kern.Table().Get(kernel.SysIoctl) == kernel.Offloaded
	var srv *ihk.OffloadServer
	var softOverhead sim.Duration
	if offloaded {
		ikcChan := ihk.NewIKC(part)
		srv = ihk.NewOffloadServer(eng, ikcChan, len(part.OSCores))
		// The design-specific software cost on top of the IKC wire
		// time: proxy wakeup and argument marshalling for McKernel,
		// the cheaper task_struct hand-off for mOS.
		if softOverhead = costs.OffloadRTT - 2*ikcChan.LocalLatency; softOverhead < 0 {
			softOverhead = 0
		}
	}

	service := cfg.SyscallService
	if s := inj.StormOffloadScale(); offloaded && s > 1 {
		// A daemon storm keeps the Linux service cores busy; every
		// offloaded call's service time stretches accordingly.
		service = service.Scale(s)
	}

	res := Result{}
	bar := barrier{n: cfg.Ranks}
	var finished int
	var last sim.Time
	// runErr is the first offload error; the failing rank stops, so the
	// run cannot finish and reports this instead of a deadlock.
	var runErr error

	for r := 0; r < cfg.Ranks; r++ {
		core := part.AppCores[r]
		rng := rootRNG.Split()
		eng.Spawn(fmt.Sprintf("rank-%d", r), func(p *sim.Proc) {
			tid := int32(r)
			for step := 0; step < cfg.Steps; step++ {
				// Compute, stretched by this core's noise.
				detour := prof.DetourIn(rng, core, cfg.ComputePerStep, sink)
				res.NoiseTotal += detour
				sink.CountKey(trace.KeyNodesimNoiseNs, int64(detour))
				sink.ObserveRank("nodesim.detour_ns", r, int64(detour))
				sink.Begin(int64(p.Now()), 0, tid, "compute", "nodesim")
				p.Sleep(cfg.ComputePerStep + detour)
				sink.End(int64(p.Now()), 0, tid, "compute", "nodesim")

				// Device syscalls.
				if cfg.SyscallsPerStep > 0 {
					sink.Begin(int64(p.Now()), 0, tid, "syscalls", "nodesim")
				}
				for s := 0; s < cfg.SyscallsPerStep; s++ {
					start := p.Now()
					if offloaded {
						p.Sleep(costs.Trap + softOverhead)
						for try := 0; ; try++ {
							if stall, stalled := inj.OffloadStall(); stalled && try < inj.OffloadRetries() {
								// The issue vanished into the flaky
								// channel: wait out the timeout,
								// then re-issue.
								p.Sleep(stall)
								res.OffloadStalls++
								sink.CountKey(trace.KeyFaultOffloadStalls, 1)
								sink.CountKey(trace.KeyFaultOffloadStallNs, int64(stall))
								continue
							}
							if err := srv.Offload(p, core, service); err != nil {
								if runErr == nil {
									runErr = err
								}
								return
							}
							break
						}
					} else {
						p.Sleep(costs.Trap + cfg.SyscallService)
					}
					d := sim.Duration(p.Now() - start)
					if d > res.MaxOffloadLatency {
						res.MaxOffloadLatency = d
						sink.CountMaxKey(trace.KeyNodesimMaxOffloadLatencyNs, int64(d))
					}
					sink.ObserveRank("nodesim.offload_latency_ns", r, int64(d))
				}
				if cfg.SyscallsPerStep > 0 {
					sink.End(int64(p.Now()), 0, tid, "syscalls", "nodesim")
				}

				if cfg.Barrier {
					bar.wait(p)
					if r == 0 {
						res.StepEnds = append(res.StepEnds, p.Now())
						sink.Instant(int64(p.Now()), 0, tid, "step-barrier", "nodesim",
							map[string]int64{"step": int64(step)})
					}
				}
			}
			finished++
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	eng.RunUntil(sim.Time(sim.Hour))
	// Unwind whatever is still blocked (the proxy workers always are;
	// after a failure, ranks too), so no process goroutine outlives Run.
	eng.Drain()
	if runErr != nil {
		return Result{}, fmt.Errorf("nodesim: %w", runErr)
	}
	if finished != cfg.Ranks {
		return Result{}, fmt.Errorf("nodesim: only %d of %d ranks finished (deadlock?)", finished, cfg.Ranks)
	}
	if offloaded {
		res.OffloadsServiced = srv.Serviced
	}
	res.Elapsed = sim.Duration(last)
	return res, nil
}

// AnalyticEstimate is the closed-form per-step cost the cluster harness
// uses: compute plus syscall costs, without queueing or barrier effects.
// Comparing it with Run quantifies what the analytic model omits.
func AnalyticEstimate(cfg Config) sim.Duration {
	costs := cfg.Kern.Costs()
	per := cfg.ComputePerStep
	perCall := costs.Trap + cfg.SyscallService
	if cfg.Kern.Table().Get(kernel.SysIoctl) == kernel.Offloaded {
		perCall += costs.OffloadRTT
	}
	per += sim.Duration(cfg.SyscallsPerStep) * perCall
	return sim.Duration(cfg.Steps) * per
}
