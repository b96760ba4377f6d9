package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"

	"mklite"
	"mklite/internal/apps"
	"mklite/internal/experiments"
	"mklite/internal/fleet"
	"mklite/internal/obs"
)

func TestAttributeChargesHelpersToCaller(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		// RNG, math and malloc frames above a noise frame are noise's.
		{[]string{"runtime.mallocgc", "math.Exp", "mklite/internal/sim.(*RNG).LogNormal",
			"mklite/internal/noise.(*Source).sampleDetour", "mklite/internal/cluster.runSteps"}, layerNoise},
		// stats called from the step loop is the step loop's.
		{[]string{"sort.Float64s", "mklite/internal/stats.Median", "mklite/internal/cluster.runSteps"}, layerCluster},
		// setupNode and its closures are cluster.setup; the mem frame inside wins.
		{[]string{"mklite/internal/cluster.setupNode.func2", "mklite/internal/cluster.runAttempt"}, layerClusterSetup},
		{[]string{"runtime.growslice", "mklite/internal/mem.(*AddrSpace).Touch", "mklite/internal/cluster.setupNode"}, layerMem},
		// The event engine is sim; a channel switch it makes is too.
		{[]string{"runtime.chansend1", "mklite/internal/sim.(*Proc).yield", "mklite/internal/nodesim.Run.func1"}, layerSim},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, layerSim},
		// Observation and JSON materialisation are obs.
		{[]string{"encoding/json.(*encodeState).marshal", "mklite/internal/obs.(*DecisionLog).JSON", "main.(*observed).run"}, layerObs},
		{[]string{"mklite/internal/trace.(*Sink).Counting", "mklite/internal/noise.(*Profile).DetourInTo"}, layerObs},
		// Generic instantiations resolve to their package.
		{[]string{"mklite/internal/fleet.sortedBy[go.shape.int]", "mklite/internal/fleet.Run"}, layerFleet},
		// Background collection with no layer frame is GC; anything else is other.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"mklite/internal/stats.Summarize", "mklite/internal/experiments.measureCounted"}, layerOther},
		{[]string{"runtime.nanotime1"}, layerOther},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestLayerSharesSumToOne(t *testing.T) {
	samples := []sample{
		{[]string{"mklite/internal/noise.MaxDetourRank"}, 6},
		{[]string{"mklite/internal/mem.(*Heap).Grow"}, 3},
		{[]string{"runtime.bgsweep"}, 1},
	}
	shares, total := layerShares(layerCounts(samples))
	if total != 10 {
		t.Fatalf("total %d, want 10", total)
	}
	var s float64
	for _, l := range layers {
		v, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		s += v
	}
	if math.Abs(s-1) > 1e-12 || shares[layerNoise] != 0.6 || shares[layerGC] != 0.1 {
		t.Errorf("shares %v (sum %v)", shares, s)
	}
}

//go:noinline
func spinForProfile(budget float64) float64 {
	x := 1.0
	for start := cpuSeconds(); cpuSeconds()-start < budget; {
		for i := 0; i < 10000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(0.3)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.count <= 0 {
			t.Fatalf("sample with count %d", s.count)
		}
		found = found || slices.ContainsFunc(s.stack, func(fn string) bool {
			return strings.HasSuffix(fn, ".spinForProfile")
		})
	}
	if !found {
		t.Errorf("no sample in spinForProfile among %d samples", len(samples))
	}
	if _, err := parseProfile(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func goodFigures() []mklite.Figure {
	var figs []mklite.Figure
	for _, a := range apps.All() {
		f := mklite.Figure{ID: "fig4-" + a.Name}
		for _, k := range []string{"Linux", "McKernel", "mOS"} {
			f.Series = append(f.Series, mklite.Series{Name: k, Points: []mklite.Point{{Nodes: 1, Median: 2}}})
		}
		figs = append(figs, f)
	}
	return figs
}

func TestCheckFigure4RejectsCorruption(t *testing.T) {
	if err := checkFigure4(goodFigures()); err != nil {
		t.Fatalf("good figures rejected: %v", err)
	}
	corrupt := map[string]func([]mklite.Figure) []mklite.Figure{
		"missing figure": func(f []mklite.Figure) []mklite.Figure { return f[1:] },
		"missing series": func(f []mklite.Figure) []mklite.Figure { f[2].Series = f[2].Series[:2]; return f },
		"no points":      func(f []mklite.Figure) []mklite.Figure { f[0].Series[1].Points = nil; return f },
		"NaN median":     func(f []mklite.Figure) []mklite.Figure { f[3].Series[0].Points[0].Median = math.NaN(); return f },
		"zero median":    func(f []mklite.Figure) []mklite.Figure { f[4].Series[2].Points[0].Median = 0; return f },
	}
	for name, c := range corrupt {
		if err := checkFigure4(c(goodFigures())); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func goodLegs(jobs int) []*fleet.Result {
	var legs []*fleet.Result
	for _, p := range experiments.FacilityPolicies() {
		jph := 100.0
		if p == "heuristic" || p == "specialize" {
			jph = 110
		}
		legs = append(legs, &fleet.Result{Policy: p, Jobs: jobs, JobsPerHour: jph, SLO: &obs.SLOReport{Passed: true}})
	}
	return legs
}

func TestCheckFacilityRejectsCorruption(t *testing.T) {
	if err := checkFacility(goodLegs(150), 150); err != nil {
		t.Fatalf("good legs rejected: %v", err)
	}
	corrupt := map[string]func([]*fleet.Result) []*fleet.Result{
		"missing leg":      func(l []*fleet.Result) []*fleet.Result { return l[:4] },
		"reordered legs":   func(l []*fleet.Result) []*fleet.Result { l[0], l[1] = l[1], l[0]; return l },
		"job not finished": func(l []*fleet.Result) []*fleet.Result { l[2].Jobs--; return l },
		"SLO failed":       func(l []*fleet.Result) []*fleet.Result { l[3].SLO.Passed = false; return l },
		"SLO missing":      func(l []*fleet.Result) []*fleet.Result { l[0].SLO = nil; return l },
		"no LWK gain":      func(l []*fleet.Result) []*fleet.Result { l[4].JobsPerHour = 104; return l },
	}
	for name, c := range corrupt {
		if err := checkFacility(c(goodLegs(150)), 150); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckOffloadStormRejectsCorruption(t *testing.T) {
	cfg := stormConfig(1)
	want := cfg.Ranks * cfg.Steps * cfg.SyscallsPerStep
	good := func() []mklite.NodeSimResult {
		return []mklite.NodeSimResult{
			{Kernel: "Linux", ElapsedSeconds: 1},
			{Kernel: "McKernel", ElapsedSeconds: 1, OffloadsServiced: want},
			{Kernel: "mOS", ElapsedSeconds: 1, OffloadsServiced: want},
		}
	}
	if err := checkOffloadStorm(good(), cfg); err != nil {
		t.Fatalf("good results rejected: %v", err)
	}
	corrupt := map[string]func([]mklite.NodeSimResult) []mklite.NodeSimResult{
		"missing kernel":   func(r []mklite.NodeSimResult) []mklite.NodeSimResult { return r[:2] },
		"lost offload":     func(r []mklite.NodeSimResult) []mklite.NodeSimResult { r[2].OffloadsServiced--; return r },
		"infinite elapsed": func(r []mklite.NodeSimResult) []mklite.NodeSimResult { r[0].ElapsedSeconds = math.Inf(1); return r },
	}
	for name, c := range corrupt {
		if err := checkOffloadStorm(c(good()), cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckObservedRejectsCorruption(t *testing.T) {
	w, err := newObserved(7)
	if err != nil {
		t.Fatal(err)
	}
	// A short stream keeps the test fast; the checks are the benchmark's.
	w.base.Jobs = 12
	w.jobs = 12
	if err := w.run(nil); err != nil {
		t.Fatal(err)
	}
	clean, err := w.cleanLeg()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkObserved(w.res, clean, w.timeline, w.dlog, w.jobs); err != nil {
		t.Fatalf("good observed leg rejected: %v", err)
	}
	changed := *clean
	changed.Backfilled++
	if err := checkObserved(w.res, &changed, w.timeline, w.dlog, w.jobs); err == nil {
		t.Error("result differing from the clean leg accepted")
	}
	if err := checkObserved(w.res, clean, w.timeline[:len(w.timeline)/2], w.dlog, w.jobs); err == nil {
		t.Error("truncated timeline accepted")
	}
	badLog := bytes.Replace(w.dlog, []byte(obs.DecisionsSchema), []byte("other/v0"), 1)
	if err := checkObserved(w.res, clean, w.timeline, badLog, w.jobs); err == nil {
		t.Error("decision log with a wrong schema accepted")
	}
	if err := checkObserved(w.res, clean, w.timeline, w.dlog, w.jobs+1); err == nil {
		t.Error("missing job accepted")
	}
}

func TestCheckDigestsCountsChangedRuns(t *testing.T) {
	if n := checkDigests([]string{"a", "a", "a"}); n != 0 {
		t.Errorf("identical digests: %d bad", n)
	}
	if n := checkDigests([]string{"a", "b", "a", "c"}); n != 2 {
		t.Errorf("two changed digests: %d bad, want 2", n)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric lists
// in step with what the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, benchmark runs %v", names, workloadNames)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		if !slices.Equal(g, w) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %s\nbenchmark      %s", kind, strings.Join(g, ", "), strings.Join(w, ", "))
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
