package main

import (
	"slices"
	"strings"
)

// The layers a CPU-profile sample can be charged to. They are named after
// the simulator's modules; README.md gives the end-to-end metric and
// workload each should move.
const (
	layerNoise        = "noise"
	layerClusterSetup = "cluster.setup" // setupNode + bootKernel
	layerCluster      = "cluster"       // the step loop and the rest of the package
	layerMem          = "mem"
	layerKernel       = "kernel"
	layerMPI          = "mpi"
	layerSched        = "sched"
	layerSim          = "sim"
	layerFleet        = "fleet"
	layerObs          = "obs"
	layerGC           = "gc"    // GC work that no layer frame called
	layerOther        = "other" // experiments, apps, fault, mklite, the benchmark itself
)

// layers lists every layer in report order.
var layers = []string{layerNoise, layerClusterSetup, layerCluster, layerMem, layerKernel,
	layerMPI, layerSched, layerSim, layerFleet, layerObs, layerGC, layerOther}

// packageLayers maps each layer package to its layer. A package missing
// here (runtime, math, stats, encoding/json, ...) is a helper: its samples
// go to the layer that called it.
var packageLayers = map[string]string{
	"mklite/internal/noise":    layerNoise,
	"mklite/internal/cluster":  layerCluster,
	"mklite/internal/mem":      layerMem,
	"mklite/internal/kernel":   layerKernel,
	"mklite/internal/linuxos":  layerKernel,
	"mklite/internal/mckernel": layerKernel,
	"mklite/internal/mos":      layerKernel,
	"mklite/internal/ihk":      layerKernel,
	"mklite/internal/hw":       layerKernel,
	"mklite/internal/mpi":      layerMPI,
	"mklite/internal/fabric":   layerMPI,
	"mklite/internal/sched":    layerSched,
	"mklite/internal/sim":      layerSim,
	"mklite/internal/nodesim":  layerSim,
	"mklite/internal/fleet":    layerFleet,
	"mklite/internal/obs":      layerObs,
	"mklite/internal/trace":    layerObs,
	"mklite/internal/metrics":  layerObs,
}

// clusterSetupFuncs are the cluster functions (with their closures)
// charged to cluster.setup rather than to the step loop.
var clusterSetupFuncs = []string{"setupNode", "bootKernel"}

// simHelpers are the sim-package functions that are helpers, not the
// event engine: the RNG and the seed-stream derivation.
var simHelpers = []string{"(*RNG).", "RNG.", "NewRNG", "StreamSeed"}

// gcRoots are runtime functions that start garbage-collector work outside
// any allocation site (background mark workers, sweeping, scavenging).
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.gcStart", "runtime.GC"}

// switchRoots are the runtime's goroutine-switch entry points. A stack
// with no layer frame that runs through one is the scheduler switching
// goroutines, which is sim's cost: every workload runs at par width 1, so
// the only goroutines that switch are sim.Proc's.
var switchRoots = []string{"runtime.mcall", "runtime.park_m", "runtime.goexit0"}

// splitFunc splits a profile function name such as
// "mklite/internal/noise.(*Profile).DetourIn" into its package path and
// the rest.
func splitFunc(name string) (pkg, local string) {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation: "[...]"
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name, ""
	}
	return name[:slash+1+dot], name[slash+1+dot+1:]
}

// hasFuncPrefix reports whether local is one of the named functions or a
// method/closure nested in one (name followed by '.').
func hasFuncPrefix(local string, names []string) bool {
	for _, n := range names {
		if strings.HasPrefix(local, n) {
			if strings.HasSuffix(n, ".") || len(local) == len(n) || local[len(n)] == '.' {
				return true
			}
		}
	}
	return false
}

// frameLayer returns the layer a single frame belongs to, or "" for a
// helper frame.
func frameLayer(fn string) string {
	pkg, local := splitFunc(fn)
	layer := packageLayers[pkg]
	switch layer {
	case layerCluster:
		if hasFuncPrefix(local, clusterSetupFuncs) {
			return layerClusterSetup
		}
	case layerSim:
		if pkg == "mklite/internal/sim" && hasFuncPrefix(local, simHelpers) {
			return ""
		}
	}
	return layer
}

// attribute charges one stack (leaf first) to a layer: the innermost frame
// in a layer package wins, so helpers are charged to their caller. A stack
// with no layer frame is GC work if it runs collector code, a goroutine
// switch (sim) if it runs the scheduler, else other.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	switch {
	case slices.ContainsFunc(stack, func(fn string) bool { return slices.Contains(gcRoots, fn) }):
		return layerGC
	case slices.ContainsFunc(stack, func(fn string) bool { return slices.Contains(switchRoots, fn) }):
		return layerSim
	}
	return layerOther
}

// layerCounts attributes every sample and returns the sample count charged
// to each layer.
func layerCounts(samples []sample) map[string]int64 {
	counts := make(map[string]int64, len(layers))
	for _, s := range samples {
		counts[attribute(s.stack)] += s.count
	}
	return counts
}

// layerShares turns per-layer sample counts into each layer's share of the
// total (every layer present, shares summing to 1) and the total.
func layerShares(counts map[string]int64) (map[string]float64, int64) {
	var total int64
	for _, l := range layers {
		total += counts[l]
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, total
}
