package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mklite"
	"mklite/internal/experiments"
	"mklite/internal/stats"
)

// perLayer are the metrics of the traced run, in report order. Every traced
// run reports all of them; a layer a workload does not drive reads 0.
var perLayer = []metricDef{
	{"noise.cpu_share", "fraction"},
	{"noise.max_detour_us.linux.n27", "us"},
	{"noise.max_detour_us.linux.n1024", "us"},
	{"noise.max_detour_us.linux.n4096", "us"},
	{"noise.max_detour_us.mckernel.n1024", "us"},
	{"cluster.setup_cpu_share", "fraction"},
	{"kernel.boot_ms.linux", "ms"},
	{"kernel.boot_ms.mckernel", "ms"},
	{"kernel.boot_ms.mos", "ms"},
	{"cluster.cpu_share", "fraction"},
	{"cluster.run_ms.p50", "ms"},
	{"cluster.run_ms.p99", "ms"},
	{"cluster.run_ms.exact.p50", "ms"},
	{"cluster.run_ms.orderstat.p50", "ms"},
	{"mem.cpu_share", "fraction"},
	{"mem.heap_calls", "count"},
	{"mem.faults", "count"},
	{"syscall.brk", "count"},
	{"kernel.cpu_share", "fraction"},
	{"offload.calls", "count"},
	{"mpi.cpu_share", "fraction"},
	{"mpi.collectives", "count"},
	{"mpi.halo_exchanges", "count"},
	{"fabric.messages", "count"},
	{"sched.cpu_share", "fraction"},
	{"sched.switches", "count"},
	{"sim.cpu_share", "fraction"},
	{"nodesim.run_ms.linux", "ms"},
	{"nodesim.run_ms.mckernel", "ms"},
	{"nodesim.run_ms.mos", "ms"},
	{"nodesim.us_per_offload", "us"},
	{"fleet.cpu_share", "fraction"},
	{"fleet.calibrate_s", "s"},
	{"fleet.leg_s.fixed-linux", "s"},
	{"fleet.leg_s.fixed-mckernel", "s"},
	{"fleet.leg_s.fixed-mos", "s"},
	{"fleet.leg_s.heuristic", "s"},
	{"fleet.leg_s.specialize", "s"},
	{"fleet.backfilled", "count"},
	{"obs.cpu_share", "fraction"},
	{"obs.timeline_json_ms", "ms"},
	{"obs.decisions_json_ms", "ms"},
	{"obs.timeline_mb", "MB"},
	{"obs.overhead_pct", "%"},
	{"gc.cpu_share", "fraction"},
	{"other.cpu_share", "fraction"},
	{"profile.samples", "count"},
	{"host.cpu_s", "s"},
	{"trace.overhead_pct", "%"},
}

// profileHz is the requested CPU-profile rate. Per-thread CPU timers fire
// on the kernel's scheduler tick, so a kernel built with HZ=250 delivers at
// most 250 samples per second; the parent therefore merges the profiles of
// as many traced processes as --seconds allows, and profile.samples reports
// how many were taken.
const profileHz = 1000

// overheadPairs is how many clean/observed leg pairs obs.overhead_pct
// takes its medians over.
const overheadPairs = 3

func shareMetric(layer string) string {
	if layer == layerClusterSetup {
		return "cluster.setup_cpu_share"
	}
	return layer + ".cpu_share"
}

// counterMetrics maps the counted pass's mechanism counters onto the
// per-layer count metrics.
func counterMetrics(c map[string]int64, m map[string]float64) {
	sumOf := func(names ...string) float64 {
		var s int64
		for _, n := range names {
			s += c[n]
		}
		return float64(s)
	}
	m["mem.heap_calls"] = sumOf("heap.queries", "heap.grows", "heap.shrinks")
	m["mem.faults"] = sumOf("mem.fault.4KiB", "mem.fault.2MiB", "mem.fault.1GiB")
	m["syscall.brk"] = sumOf("syscall.brk")
	// The cluster model counts offloaded calls analytically, the node
	// model event by event through the IHK server.
	m["offload.calls"] = sumOf("offload.calls", "ihk.offloads")
	m["mpi.collectives"] = sumOf("mpi.collectives")
	m["mpi.halo_exchanges"] = sumOf("mpi.halo_exchanges")
	m["fabric.messages"] = sumOf("fabric.messages")
	m["sched.switches"] = sumOf("sched.switches")
}

func msOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p) * 1e3
}

// tracedRun is one traced child run: a profiled pass of the workload with
// spans around every call into a layer, attributed to layers. With extras
// set it goes on to the workload's span-only extras, a counted pass and the
// unit-cost probes, and writes the spans to out+".spans.json". The CPU
// profile goes to out+".pprof".
func tracedRun(name string, seed uint64, out string, extras bool) childResult {
	var r childResult
	w, err := newWorkload(name, seed)
	if err != nil {
		return r.failed(err)
	}
	r.SetupS = cpuSeconds()

	tr := newTracer()
	var prof bytes.Buffer
	// Raise the rate before StartCPUProfile, which keeps a rate already
	// set (and says so on standard error).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return r.failed(err)
	}
	cpu0, wall0 := cpuSeconds(), wallNow()
	err = w.run(tr)
	r.CPUS = cpuSeconds() - cpu0
	r.WallS = wallNow().Sub(wall0).Seconds()
	pprof.StopCPUProfile()
	if err != nil {
		return r.failed(err)
	}
	if r.Digest, err = w.check(); err != nil {
		return r.failed(err)
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return r.failed(err)
	}
	r.Samples = layerCounts(samples)
	if err := os.WriteFile(out+".pprof", prof.Bytes(), 0o644); err != nil {
		return r.failed(err)
	}
	if !extras {
		return r
	}

	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	if err := workloadSpans(w, tr, m); err != nil {
		return r.failed(err)
	}
	counts, err := w.count()
	if err != nil {
		return r.failed(err)
	}
	counterMetrics(counts, m)
	probeNoise(m)
	if err := probeBoots(m); err != nil {
		return r.failed(err)
	}
	spans, err := tr.JSON()
	if err != nil {
		return r.failed(err)
	}
	if err := os.WriteFile(out+".spans.json", spans, 0o644); err != nil {
		return r.failed(err)
	}
	r.Layer = m
	return r
}

// workloadSpans turns the profiled pass's spans into the workload's span
// metrics, running the span-only extras (figure4's cell replay, observed's
// interleaved overhead pairs) first.
func workloadSpans(w workload, tr *tracer, m map[string]float64) error {
	switch w := w.(type) {
	case *figure4:
		if err := w.replay(tr); err != nil {
			return err
		}
		all := tr.cpuPrefix("cluster.Run/")
		m["cluster.run_ms.p50"] = msOf(all, 50)
		m["cluster.run_ms.p99"] = msOf(all, 99)
		m["cluster.run_ms.exact.p50"] = msOf(tr.cpu("cluster.Run/exact"), 50)
		m["cluster.run_ms.orderstat.p50"] = msOf(tr.cpu("cluster.Run/orderstat"), 50)
	case *facility:
		m["fleet.calibrate_s"] = sum(tr.cpu("fleet.calibrate"))
		for _, p := range experiments.FacilityPolicies() {
			m["fleet.leg_s."+p] = sum(tr.cpu("fleet.Run/" + p))
		}
		m["fleet.backfilled"] = float64(w.backfilled())
	case *offloadStorm:
		var lwkCPU float64
		var offloads int
		for i, k := range mklite.Kernels() {
			cpu := sum(tr.cpu("mklite.SimulateNode/" + string(k)))
			m["nodesim.run_ms."+string(k)] = cpu * 1e3
			if k != mklite.Linux {
				lwkCPU += cpu
				offloads += w.res[i].OffloadsServiced
			}
		}
		m["nodesim.us_per_offload"] = lwkCPU / float64(offloads) * 1e6
	case *observed:
		m["fleet.leg_s.heuristic"] = sum(tr.cpu("fleet.Run/heuristic"))
		m["fleet.backfilled"] = float64(w.res.Backfilled)
		m["obs.timeline_json_ms"] = sum(tr.cpu("obs.Timeline.JSON")) * 1e3
		m["obs.decisions_json_ms"] = sum(tr.cpu("obs.DecisionLog.JSON")) * 1e3
		m["obs.timeline_mb"] = float64(len(w.timeline)) / 1e6
		pct, err := w.overheadPct()
		if err != nil {
			return err
		}
		m["obs.overhead_pct"] = pct
	default:
		return fmt.Errorf("no span metrics for %T", w)
	}
	return nil
}

// overheadPct is the observed leg's CPU time over the clean leg's, in
// percent, from interleaved pairs that alternate which side runs first.
func (w *observed) overheadPct() (float64, error) {
	var clean, obsd []float64
	timeIt := func(f func() error) (float64, error) {
		t0 := cpuSeconds()
		err := f()
		return cpuSeconds() - t0, err
	}
	runClean := func() error { _, err := w.cleanLeg(); return err }
	runObserved := func() error { _, _, _, err := w.observedLeg(nil, w.base); return err }
	for i := 0; i < overheadPairs; i++ {
		sides := []struct {
			f   func() error
			dst *[]float64
		}{{runClean, &clean}, {runObserved, &obsd}}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, s := range sides {
			t, err := timeIt(s.f)
			if err != nil {
				return 0, err
			}
			*s.dst = append(*s.dst, t)
		}
	}
	return (stats.Median(obsd)/stats.Median(clean) - 1) * 100, nil
}
