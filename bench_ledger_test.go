package mklite

// The wall-clock bench ledger. Every gated benchmark is named
// BenchmarkLedger… and records through ledgerRecord into one BENCH.json
// ("mklite-bench/v1"), which cmd/mkbench compares against the checked-in
// copy. CI runs the whole ledger once, in one process:
//
//	go test -bench '^BenchmarkLedger' -benchtime=1x -run '^$' .
//
// MKLITE_BENCH_FULL=1 adds the full-scale modes (the nightly run); the
// checked-in BENCH.json is regenerated that way, so every mode has a
// baseline. The file is rewritten after every record, so it is valid however
// many ledger benchmarks the filter selects; the recorder refuses a
// benchmark outside the BenchmarkLedger prefix, so no benchmark the CI
// selection skips can write it. BENCH_PR{2..10}.json are the frozen history
// that `mkbench trend` walks.
//
// Two estimators, learned from BENCH_PR3.json recording a *negative*
// trace-off overhead on a shared runner:
//
//   - a mode's seconds are the best of max(b.N, reps) back-to-back runs,
//     with the (worst-best)/best spread recorded so a consumer can tell a
//     delta from noise;
//   - an overhead percentage is the median of per-pair probe/base ratios
//     (pairedOverhead): pairing cancels slow machine drift, alternating the
//     within-pair order cancels the second slot's warm-cache advantage, and
//     the median discards the pairs a load spike landed in.
//
// (Test files are exempt from mklint, so reading the wall clock here does
// not violate the nowalltime contract — the simulation itself never does.)

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mklite/internal/benchfmt"
	"mklite/internal/experiments"
	"mklite/internal/fault"
	"mklite/internal/fleet"
	"mklite/internal/kernel"
	"mklite/internal/obs"
	"mklite/internal/sim"
	"mklite/internal/stats"
)

const (
	ledgerPath   = "BENCH.json"
	ledgerPrefix = "BenchmarkLedger"
	// benchReps is the minimum repetition count of a best-of mode.
	benchReps = 5
	// overheadPairs and overheadSlot size the Figure 4 overhead estimators:
	// the faults-off budget (2%) needs more than the 9 single-run pairs it
	// once had, which read anywhere from 0 to 8.1% on a 2-CPU box.
	overheadPairs = 21
	overheadSlot  = 3
	// fullScaleNodes is the paper's largest evaluated configuration.
	fullScaleNodes = 2048
)

var ledger struct {
	mu   sync.Mutex
	file *benchfmt.File
}

// ledgerRecord applies one benchmark's measurements to the ledger and
// rewrites BENCH.json, recomputing parallel_speedup when both of its modes
// are present.
func ledgerRecord(b *testing.B, apply func(f *benchfmt.File)) {
	b.Helper()
	if !strings.HasPrefix(b.Name(), ledgerPrefix) {
		b.Fatalf("%s records into %s but lacks the %s prefix CI selects", b.Name(), ledgerPath, ledgerPrefix)
	}
	ledger.mu.Lock()
	defer ledger.mu.Unlock()
	if ledger.file == nil {
		ledger.file = benchfmt.New("ledger", runtime.GOMAXPROCS(0))
		ledger.file.Derived = map[string]float64{}
	}
	f := ledger.file
	apply(f)
	if seq, ok := f.Modes["figure4-quick"]; ok {
		if par, ok := f.Modes["parallel"]; ok && par.Seconds > 0 {
			f.Derived["parallel_speedup"] = seq.Seconds / par.Seconds
		}
	}
	out, err := f.Marshal()
	if err != nil {
		b.Fatalf("marshal %s: %v", ledgerPath, err)
	}
	if err := os.WriteFile(ledgerPath, out, 0o644); err != nil {
		b.Fatalf("write %s: %v", ledgerPath, err)
	}
}

// recordMode reports and records one best-of mode.
func recordMode(b *testing.B, name string, m benchfmt.Mode) {
	b.Helper()
	b.ReportMetric(m.Seconds, "wall-s/op")
	b.ReportMetric(m.SpreadPercent, "spread-%")
	ledgerRecord(b, func(f *benchfmt.File) { f.Modes[name] = m })
}

// timed runs f once and returns its wall clock in seconds.
func timed(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// summarize reduces samples to a mode: best seconds and (worst-best)/best.
func summarize(samples []float64) benchfmt.Mode {
	best, worst := math.Inf(1), 0.0
	for _, s := range samples {
		best = math.Min(best, s)
		worst = math.Max(worst, s)
	}
	return benchfmt.Mode{Reps: len(samples), Seconds: best, SpreadPercent: (worst - best) / best * 100}
}

// bestOf times max(b.N, reps) back-to-back runs of one mode.
func bestOf(b *testing.B, reps int, run func()) benchfmt.Mode {
	b.Helper()
	samples := make([]float64, max(b.N, reps))
	for i := range samples {
		samples[i] = timed(run)
	}
	return summarize(samples)
}

// pairedOverhead times base and probe in max(b.N, pairs) adjacent pairs,
// base first on even pairs and probe first on odd ones, each slot the best
// of slot back-to-back runs (filtering sub-second transients). The overhead
// is the median of the per-pair probe/base ratios, in percent, clamped at
// zero: a negative overhead is noise, not a speedup, and a checked-in
// negative value would let a real regression hide in the slack. The modes
// summarize the slot times.
func pairedOverhead(b *testing.B, pairs, slot int, base, probe func()) (baseMode, probeMode benchfmt.Mode, pct float64) {
	b.Helper()
	best := func(f func()) float64 {
		t := timed(f)
		for range slot - 1 {
			t = min(t, timed(f))
		}
		return t
	}
	n := max(b.N, pairs)
	baseS, probeS, ratios := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range n {
		if i%2 == 0 {
			baseS[i] = best(base)
			probeS[i] = best(probe)
		} else {
			probeS[i] = best(probe)
			baseS[i] = best(base)
		}
		ratios[i] = probeS[i] / baseS[i]
	}
	slices.Sort(ratios)
	median := ratios[n/2]
	if n%2 == 0 {
		median = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	pct = max((median-1)*100, 0)
	b.ReportMetric(pct, "overhead-%")
	return summarize(baseS), summarize(probeS), pct
}

// figure4Run returns a closure running one Figure 4 sweep (quick unless the
// mutation says otherwise) at width 1 with the given config tweak.
func figure4Run(b *testing.B, mutate func(*ExperimentConfig)) func() {
	b.Helper()
	cfg := benchCfg()
	cfg.Workers = 1
	if mutate != nil {
		mutate(&cfg)
	}
	return func() {
		figs, _, err := ReproduceFigure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 8 {
			b.Fatalf("expected 8 figures, got %d", len(figs))
		}
	}
}

// figure4Overhead times a probe configuration against the width-1 quick
// sweep and records the probe mode (when named) and the overhead.
func figure4Overhead(b *testing.B, probeMode, derived string, mutate func(*ExperimentConfig)) {
	b.Helper()
	_, probe, pct := pairedOverhead(b, overheadPairs, overheadSlot, figure4Run(b, nil), figure4Run(b, mutate))
	ledgerRecord(b, func(f *benchfmt.File) {
		if probeMode != "" {
			f.Modes[probeMode] = probe
		}
		f.Derived[derived] = pct
	})
}

// requireFull skips a full-scale mode unless MKLITE_BENCH_FULL is set.
func requireFull(b *testing.B) {
	b.Helper()
	if os.Getenv("MKLITE_BENCH_FULL") == "" {
		b.Skip("full-scale mode: set MKLITE_BENCH_FULL=1 (nightly CI runs it)")
	}
}

// BenchmarkLedgerFigure4Quick times the width-1 quick Figure 4 sweep: the
// cross-PR wall-clock trajectory and the base every Figure 4 overhead is
// measured against.
func BenchmarkLedgerFigure4Quick(b *testing.B) {
	recordMode(b, "figure4-quick", bestOf(b, benchReps, figure4Run(b, nil)))
}

// BenchmarkLedgerFigure4Parallel runs the same sweep at the production
// default width (GOMAXPROCS); parallel_speedup records the gain over
// figure4-quick. Determinism tests prove the bytes identical.
func BenchmarkLedgerFigure4Parallel(b *testing.B) {
	recordMode(b, "parallel", bestOf(b, benchReps, figure4Run(b, func(cfg *ExperimentConfig) { cfg.Workers = 0 })))
}

// BenchmarkLedgerTraceOff is the placebo: the no-sink configuration against
// itself, so trace_off_overhead_percent is the estimator's noise floor
// (BenchmarkSinkDisabled in internal/trace pins the per-site cost).
func BenchmarkLedgerTraceOff(b *testing.B) {
	figure4Overhead(b, "", "trace_off_overhead_percent", nil)
}

// BenchmarkLedgerTraceCounters attaches a per-repetition counter sink to
// every run; counters_overhead_percent carries the <=5% budget. Counting
// keeps the cluster's heap-replay memo (docs/PERF.md §2); with the memo off
// it cost 14–21% on this workload.
func BenchmarkLedgerTraceCounters(b *testing.B) {
	figure4Overhead(b, "trace-counters", "counters_overhead_percent",
		func(cfg *ExperimentConfig) { cfg.Counters = true })
}

// BenchmarkLedgerMetrics attaches a metrics registry to every repetition:
// histograms on the fault/offload/noise/collective paths, phases, gauges.
func BenchmarkLedgerMetrics(b *testing.B) {
	figure4Overhead(b, "metrics", "metrics_overhead_percent",
		func(cfg *ExperimentConfig) { cfg.Metrics = true })
}

// BenchmarkLedgerFaultsOff attaches an *empty* fault plan to every job —
// the worst faults-off case, paying Empty()/Validate() plus the nil-injector
// test at every site; faults_off_overhead_percent carries the <=2% budget.
func BenchmarkLedgerFaultsOff(b *testing.B) {
	figure4Overhead(b, "faults-off", "faults_off_overhead_percent",
		func(cfg *ExperimentConfig) { cfg.Faults = &fault.Plan{} })
}

// BenchmarkLedgerFaultsStraggler records the cost of an active plan (one
// straggler plus a mildly lossy fabric) for the trajectory only.
func BenchmarkLedgerFaultsStraggler(b *testing.B) {
	plan := &fault.Plan{
		Stragglers: []fault.Straggler{{Node: 0, Extra: 2 * sim.Millisecond}},
		Link:       &fault.LinkFault{LossProb: 0.001, Timeout: 50 * sim.Microsecond},
	}
	recordMode(b, "faults-straggler", bestOf(b, benchReps, figure4Run(b, func(cfg *ExperimentConfig) { cfg.Faults = plan })))
}

// BenchmarkLedgerFigure4Full times the complete sweep (Quick off): every
// node count per application, seven of eight reaching fullScaleNodes x 64
// ranks, where the order-statistic noise path engages.
func BenchmarkLedgerFigure4Full(b *testing.B) {
	requireFull(b)
	if !slices.ContainsFunc(Apps(), func(a AppInfo) bool { return slices.Contains(a.NodeCounts, fullScaleNodes) }) {
		b.Fatal("no application scales to 2048 nodes")
	}
	recordMode(b, "figure4-full-2048", bestOf(b, benchReps, figure4Run(b, func(cfg *ExperimentConfig) { cfg.Quick = false })))
}

// facilityRun returns a closure running the all-policy facility comparison
// at width 1.
func facilityRun(b *testing.B, quick bool) func() {
	b.Helper()
	cfg := benchCfg()
	cfg.Quick = quick
	cfg.Workers = 1
	return func() {
		results, _, err := ReproduceFacility(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 5 {
			b.Fatalf("expected 5 policies, got %d", len(results))
		}
	}
}

// BenchmarkLedgerFacilityQuick times every kernel policy over one seeded
// 150-job stream on 64 nodes: stream generation, backfill, allocation,
// thousands of cluster.Run launches and counter merges.
func BenchmarkLedgerFacilityQuick(b *testing.B) {
	recordMode(b, "facility-quick", bestOf(b, benchReps, facilityRun(b, true)))
}

// BenchmarkLedgerFacilityFull times the acceptance scale: 1,000 jobs over
// 256 nodes per policy.
func BenchmarkLedgerFacilityFull(b *testing.B) {
	requireFull(b)
	recordMode(b, "facility-full-1000", bestOf(b, benchReps, facilityRun(b, false)))
}

// obsBenchConfig is the quick facility stream under one policy at width 1,
// the scale both the obs overhead and its byte-invisibility are judged at.
func obsBenchConfig(tb testing.TB, observe *obs.Options) fleet.Config {
	tb.Helper()
	cfg := fleet.Config{Nodes: 64, Jobs: 150, Seed: 1, Workers: 1, Backfill: true, Share: 2, Counters: true, Observe: observe}
	pol, err := fleet.ParsePolicy("heuristic", cfg.Seed, cfg.Workers, nil)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Policy = pol
	return cfg
}

// BenchmarkLedgerObs times the quick facility run with observability off
// and with every standing backend on — a fresh timeline and decision log
// per run, job-namespaced counters and the stock SLO. Each of the 40 pairs
// takes the best of 3 runs per slot; a placebo holds this estimator within
// ±1.5 points on a loaded runner, inside the <=2% budget.
func BenchmarkLedgerObs(b *testing.B) {
	slo, err := obs.ParseSLO(DefaultFacilitySLO)
	if err != nil {
		b.Fatal(err)
	}
	run := func(on bool) func() {
		return func() {
			cfg := obsBenchConfig(b, nil)
			if on {
				cfg.Observe = &obs.Options{
					Timeline:    obs.NewTimeline(cfg.Nodes, cfg.Share, 0),
					Decisions:   obs.NewDecisionLog(),
					JobCounters: true,
				}
				cfg.SLO = slo
			}
			res, err := fleet.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.Jobs != cfg.Jobs {
				b.Fatalf("run lost jobs: %d of %d", res.Jobs, cfg.Jobs)
			}
			if on && (cfg.Observe.Timeline.Open() != 0 || cfg.Observe.Decisions.Len() != cfg.Jobs) {
				b.Fatal("observed run produced incomplete artifacts")
			}
		}
	}
	off, on, pct := pairedOverhead(b, 40, 3, run(false), run(true))
	ledgerRecord(b, func(f *benchfmt.File) {
		f.Modes["obs-off"] = off
		f.Modes["obs-on"] = on
		f.Derived["obs_on_overhead_percent"] = pct
	})
}

// TestObsOffIsByteInvisible is the off-side half of the obs claim at the
// benchmark's own scale: a run with no observability options and one with a
// zero-value Options produce identical result bytes.
func TestObsOffIsByteInvisible(t *testing.T) {
	marshal := func(observe *obs.Options) []byte {
		res, err := fleet.Run(obsBenchConfig(t, observe))
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := marshal(nil)
	if zero := marshal(&obs.Options{}); !bytes.Equal(base, zero) {
		t.Fatal("zero-value obs.Options changed the result bytes")
	}
	if bytes.Contains(base, []byte("job_counters")) || bytes.Contains(base, []byte(`"slo"`)) {
		t.Fatalf("unobserved result leaks observability fields:\n%.300s", base)
	}
}

// schedSeparationPP is the Linux policy spread, in points of noise gap,
// at the top node count of the MiniFE schedsweep figure.
func schedSeparationPP(b *testing.B, figs []*stats.Figure) float64 {
	b.Helper()
	for _, f := range figs {
		if f.ID != "schedsweep-minife" {
			continue
		}
		top := 0
		for _, s := range f.Series {
			for _, p := range s.Points {
				top = max(top, p.Nodes)
			}
		}
		sep, ok := experiments.SchedSeparation(f, kernel.TypeLinux, top)
		if !ok {
			b.Fatalf("no Linux series at %d nodes", top)
		}
		return sep
	}
	b.Fatal("no schedsweep-minife figure")
	return 0
}

// benchSchedSweep times one scheduler sweep at width 1 and returns its
// mode and the figures of the last run.
func benchSchedSweep(b *testing.B, quick bool) (benchfmt.Mode, []*stats.Figure) {
	b.Helper()
	var figs []*stats.Figure
	m := bestOf(b, benchReps, func() {
		var err error
		figs, err = experiments.SchedSweep(experiments.Config{Reps: 2, Seed: 1, Quick: quick, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
	})
	return m, figs
}

// BenchmarkLedgerSchedSweepQuick times the quick scheduler sweep (which
// keeps the 2,048-node point) and turns the acceptance criterion into a
// budget: sched_sep_shortfall_percent = max(0, 2 - sched_sep_pp) is the
// distance below the 2pp policy-separation floor, budgeted at 0.
func BenchmarkLedgerSchedSweepQuick(b *testing.B) {
	m, figs := benchSchedSweep(b, true)
	sep := schedSeparationPP(b, figs)
	b.ReportMetric(sep, "sep-pp")
	recordMode(b, "schedsweep-quick", m)
	ledgerRecord(b, func(f *benchfmt.File) {
		f.Derived["sched_sep_pp"] = sep
		f.Derived["sched_sep_shortfall_percent"] = max(0, 2-sep)
	})
}

// BenchmarkLedgerSchedSweepFull times the full grid, every node count per
// application.
func BenchmarkLedgerSchedSweepFull(b *testing.B) {
	requireFull(b)
	m, _ := benchSchedSweep(b, false)
	recordMode(b, "schedsweep-full", m)
}

// collapsedIntoFigure4Quick lists the history's modes that timed the
// identical width-1 quick Figure 4 configuration; the ledger measures it
// once, as figure4-quick.
var collapsedIntoFigure4Quick = map[string]bool{
	"sequential":              true,
	"trace-off":               true,
	"trace-off-baseline":      true,
	"trace-counters-baseline": true,
	"metrics-baseline":        true,
	"faults-off-baseline":     true,
}

// TestLedgerCoversHistory checks that every mode and derived metric of the
// schema-versioned history files is still measured by the ledger, directly
// or through the collapse into figure4-quick.
func TestLedgerCoversHistory(t *testing.T) {
	read := func(path string) *benchfmt.File {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := benchfmt.Read(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return f
	}
	cur := read(ledgerPath)
	for _, pr := range []string{"4", "5", "7", "8", "9", "10"} {
		path := "BENCH_PR" + pr + ".json"
		old := read(path)
		for m := range old.Modes {
			if collapsedIntoFigure4Quick[m] {
				m = "figure4-quick"
			}
			if _, ok := cur.Modes[m]; !ok {
				t.Errorf("%s mode %s is missing from %s", path, m, ledgerPath)
			}
		}
		for d := range old.Derived {
			if _, ok := cur.Derived[d]; !ok {
				t.Errorf("%s derived %s is missing from %s", path, d, ledgerPath)
			}
		}
	}
}

// TestLedgerRefusesForeignBenchmark: a benchmark outside the
// BenchmarkLedger prefix fails before it can touch the ledger.
func TestLedgerRefusesForeignBenchmark(t *testing.T) {
	t.Chdir(t.TempDir())
	applied := false
	testing.Benchmark(func(b *testing.B) {
		ledgerRecord(b, func(*benchfmt.File) { applied = true })
	})
	if _, err := os.Stat(ledgerPath); applied || err == nil {
		t.Fatalf("a foreign benchmark recorded into the ledger (applied %v, stat %v)", applied, err)
	}
}
